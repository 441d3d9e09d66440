package tier

import (
	"errors"
	"testing"
	"time"

	"mrm/internal/core"
	"mrm/internal/units"
)

// planOf builds a ReadPlan over the given ids, failing the test on any
// append error.
func planOf(t *testing.T, m *Manager, ids []ObjectID) *ReadPlan {
	t.Helper()
	var p ReadPlan
	for _, id := range ids {
		if err := m.PlanAppend(&p, id); err != nil {
			t.Fatalf("PlanAppend(%d): %v", id, err)
		}
	}
	return &p
}

// TestGetPlannedMatchesGets drives one twin with a Get loop by id and the
// other with a pre-resolved ReadPlan over the same id sequences — singleton
// runs (alternating tiers), multi-object runs, repeated execution of one plan
// — and requires identical done counts, errors, per-tier accounting, and
// backend traffic. GetPlanned is the serving simulator's per-step read path
// and must not change any number.
func TestGetPlannedMatchesGets(t *testing.T) {
	seq, pln, ids := twinManagers(t)
	sequences := [][]ObjectID{
		ids,                                      // alternating tiers: every run is a singleton
		{ids[0], ids[2], ids[4]},                 // one 3-object device-tier run
		{ids[1], ids[3], ids[5]},                 // one 3-object MRM-tier run
		{ids[0], ids[2], ids[1], ids[3], ids[6]}, // mixed run lengths
		{ids[7]},
		{},
	}
	for si, seqIDs := range sequences {
		p := planOf(t, pln, seqIDs)
		// Execute the same plan several times: planned reads are resolved once
		// and replayed every decode step.
		for rep := 0; rep < 3; rep++ {
			seqDone, seqErr := getLoop(seq, seqIDs)
			plnDone, plnErr := pln.GetPlanned(p)
			if plnDone != seqDone {
				t.Fatalf("seq %d rep %d: done %d != by-id %d", si, rep, plnDone, seqDone)
			}
			if (plnErr == nil) != (seqErr == nil) ||
				(plnErr != nil && plnErr.Error() != seqErr.Error()) {
				t.Fatalf("seq %d rep %d: err %v != by-id %v", si, rep, plnErr, seqErr)
			}
			checkTwins(t, "after exec", seq, pln)
		}
	}
}

// TestGetPlannedObservesExpiry pins the expiry arm of the validity contract:
// a plan member on the MRM tier that expires after the plan was built must
// fail the planned read exactly as the by-id read fails — same error, same
// partial progress, same accounting for the earlier reads.
func TestGetPlannedObservesExpiry(t *testing.T) {
	seq, pln, ids := twinManagers(t)
	// ids alternate HBM/MRM; odd ids are MRM-backed KV pages (PolicyDrop,
	// 1h lifetime). Read [hbm, mrm, hbm] through a plan built now, then
	// expire the MRM page on both twins and read again.
	seqIDs := []ObjectID{ids[0], ids[1], ids[2]}
	p := planOf(t, pln, seqIDs)
	if err := seq.Tick(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := pln.Tick(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	seqDone, seqErr := getLoop(seq, seqIDs)
	plnDone, plnErr := pln.GetPlanned(p)
	if seqErr == nil || !errors.Is(seqErr, core.ErrExpired) {
		t.Fatalf("setup: by-id read of expired page returned %v, want ErrExpired", seqErr)
	}
	if plnDone != seqDone {
		t.Fatalf("done %d != by-id %d", plnDone, seqDone)
	}
	if (plnErr == nil) || plnErr.Error() != seqErr.Error() {
		t.Fatalf("err %v != by-id %v", plnErr, seqErr)
	}
	checkTwins(t, "after expiry", seq, pln)
}

// TestPlanTruncateReset pins Truncate's run bookkeeping: truncating inside
// and at run boundaries leaves a plan equivalent to one built over the prefix,
// and Reset leaves an empty, reusable plan.
func TestPlanTruncateReset(t *testing.T) {
	seq, pln, ids := twinManagers(t)
	// [hbm, hbm, hbm, mrm, mrm]: two runs of lengths 3 and 2.
	seqIDs := []ObjectID{ids[0], ids[2], ids[4], ids[1], ids[3]}
	for _, cut := range []int{4, 3, 2, 0} {
		p := planOf(t, pln, seqIDs)
		p.Truncate(cut)
		if p.Len() != cut {
			t.Fatalf("Truncate(%d): len %d", cut, p.Len())
		}
		seqDone, seqErr := getLoop(seq, seqIDs[:cut])
		plnDone, plnErr := pln.GetPlanned(p)
		if plnDone != seqDone || (plnErr == nil) != (seqErr == nil) {
			t.Fatalf("Truncate(%d): (%d, %v) != by-id (%d, %v)", cut, plnDone, plnErr, seqDone, seqErr)
		}
		checkTwins(t, "after truncate", seq, pln)
	}
	p := planOf(t, pln, seqIDs)
	p.Truncate(99) // beyond length: no-op
	if p.Len() != len(seqIDs) {
		t.Fatalf("Truncate beyond length changed len to %d", p.Len())
	}
	p.Reset()
	if p.Len() != 0 {
		t.Fatalf("Reset left %d entries", p.Len())
	}
	if n, err := pln.GetPlanned(p); n != 0 || err != nil {
		t.Fatalf("GetPlanned on reset plan = (%d, %v)", n, err)
	}
	// A reset plan must be rebuildable.
	p2 := p
	if err := pln.PlanAppend(p2, seqIDs[0]); err != nil {
		t.Fatal(err)
	}
	if p2.Len() != 1 {
		t.Fatalf("rebuild after reset: len %d", p2.Len())
	}
}

// TestPlanAppendErrors pins PlanAppend's error contract.
func TestPlanAppendErrors(t *testing.T) {
	_, pln, ids := twinManagers(t)
	var p ReadPlan
	if err := pln.PlanAppend(&p, ObjectID(9999)); err == nil {
		t.Fatal("append of unknown id succeeded")
	}
	if p.Len() != 0 {
		t.Fatalf("failed append grew the plan to %d", p.Len())
	}
	// An expired MRM object fails resolution with ErrExpired, like Get.
	if err := pln.Tick(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := pln.PlanAppend(&p, ids[1]); !errors.Is(err, core.ErrExpired) {
		t.Fatalf("append of expired object: err %v, want ErrExpired", err)
	}
}

// TestNextHousekeepingMatchesMRM pins that the manager surfaces its MRM
// tier's deadline and reports nothing when no tier has deadline-driven work.
func TestNextHousekeepingMatchesMRM(t *testing.T) {
	hbm := smallHBM(t, 64*units.MiB)
	m, err := NewManager(StaticPolicy{}, hbm)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.NextHousekeeping(); ok {
		t.Fatal("device-only manager reported housekeeping")
	}
	mrmT := smallMRMTier(t, units.GiB)
	m2, err := NewManager(RetentionAwarePolicy{}, hbm, mrmT)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m2.Put(Meta{Kind: core.KindKVCache, Size: units.MiB, Lifetime: time.Hour}); err != nil {
		t.Fatal(err)
	}
	at, ok := m2.NextHousekeeping()
	want, wok := mrmT.NextDeadline()
	if !ok || ok != wok || at != want {
		t.Fatalf("NextHousekeeping = (%v, %v), MRM reports (%v, %v)", at, ok, want, wok)
	}
}

// plainTier hides its backend's resolved read path, so a plan reads it by
// serial Gets.
type plainTier struct{ Backend }

// refRecorder forwards to an MRM tier and records every slice GetRefs is
// handed.
type refRecorder struct {
	*MRMTier
	calls [][]core.ObjRef
}

func (r *refRecorder) GetRefs(refs []core.ObjRef) (int, error) {
	r.calls = append(r.calls, refs)
	return r.MRMTier.GetRefs(refs)
}

// TestPlanTruncateThenAppend pins ReadPlan's one entry per object: a plan
// truncated at every cut and grown back over the same ids must read like a
// Get loop, keep exactly one span or ref per object that has one, and hand
// GetRefs the plan's own refs, so the runs cached in them persist. The
// first tier is a DeviceTier (span runs) or a tier read by serial Gets.
func TestPlanTruncateThenAppend(t *testing.T) {
	for _, plain := range []bool{false, true} {
		mk := func() (*Manager, *refRecorder, []ObjectID) {
			var hbm Backend = smallHBM(t, 4*units.MiB)
			if plain {
				hbm = plainTier{hbm}
			}
			rec := &refRecorder{MRMTier: smallMRMTier(t, units.GiB)}
			m, err := NewManager(sizePolicy{}, hbm, rec)
			if err != nil {
				t.Fatal(err)
			}
			var ids []ObjectID
			// Small objects land on the first tier and big ones on the MRM
			// tier: runs of 1, 2 and 3 objects of both kinds.
			for _, size := range []units.Bytes{256, 8192, 8192, 256, 256, 8192, 256, 256, 256, 8192} {
				id, _, err := m.Put(Meta{Kind: core.KindKVCache, Size: size * units.KiB, Lifetime: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			return m, rec, ids
		}
		seq, _, ids := mk()
		pln, rec, _ := mk()
		for cut := 0; cut <= len(ids); cut++ {
			p := planOf(t, pln, ids)
			p.Truncate(cut)
			for _, id := range ids[cut:] {
				if err := pln.PlanAppend(p, id); err != nil {
					t.Fatal(err)
				}
			}
			var spans, refs int
			for i := 0; i < p.Runs(); i++ {
				tier, start, end := p.Run(i)
				switch {
				case tier == 1:
					refs += end - start
				case !plain:
					spans += end - start
				}
			}
			if len(p.spans) != spans || len(p.refs) != refs {
				t.Fatalf("plain=%v cut %d: %d spans and %d refs for %d and %d objects", plain, cut, len(p.spans), len(p.refs), spans, refs)
			}
			rec.calls = rec.calls[:0]
			seqDone, seqErr := getLoop(seq, ids)
			plnDone, plnErr := pln.GetPlanned(p)
			if plnDone != seqDone || plnErr != nil || seqErr != nil {
				t.Fatalf("plain=%v cut %d: (%d, %v) != by-id (%d, %v)", plain, cut, plnDone, plnErr, seqDone, seqErr)
			}
			checkTwins(t, "after truncate and append", seq, pln)
			off := 0
			for _, got := range rec.calls {
				if len(got) == 0 || &got[0] != &p.refs[off] {
					t.Fatalf("plain=%v cut %d: GetRefs was not handed the plan's refs from %d", plain, cut, off)
				}
				off += len(got)
			}
			if off != len(p.refs) {
				t.Fatalf("plain=%v cut %d: GetRefs read %d of the plan's %d refs", plain, cut, off, len(p.refs))
			}
		}
	}
}
