package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mrm/internal/memdev"
	"mrm/internal/units"
)

// refTwins builds two identically-stocked MRMs — a refresh-policy weights
// object, a run of KV pages, and one soft-state object — with refs resolved
// on the second BEFORE the expiry tick, so the ref-holding twin exercises
// reads through a reference whose object has since expired.
func refTwins(t *testing.T) (seq *MRM, ref *MRM, ids []ObjectID, refs []ObjRef, expIdx int) {
	t.Helper()
	mk := func(resolve bool) (*MRM, []ObjectID, []ObjRef) {
		m := newMRM(t, smallConfig())
		var ids []ObjectID
		big, _, err := m.Put(40*units.MiB, WriteOptions{Kind: KindWeights, Lifetime: 24 * time.Hour, Policy: PolicyRefresh})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, big)
		for i := 0; i < 6; i++ {
			id, _, err := m.Put(512*units.KiB, WriteOptions{Kind: KindKVCache, Lifetime: time.Hour, Policy: PolicyDrop})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		exp, _, err := m.Put(256*units.KiB, WriteOptions{Kind: KindKVCache, Lifetime: time.Minute, Policy: PolicyDrop})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, exp)
		var refs []ObjRef
		if resolve {
			for _, id := range ids {
				r, err := m.ResolveRef(id)
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, r)
			}
		}
		if err := m.Tick(15 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return m, ids, refs
	}
	seq, idsA, _ := mk(false)
	ref, idsB, refs := mk(true)
	for i := range idsA {
		if idsA[i] != idsB[i] {
			t.Fatal("twin MRMs diverged during setup")
		}
	}
	return seq, ref, idsA, refs, len(idsA) - 1
}

// getBatch is the by-id batched read composed from the public API, as
// tier.MRMTier.GetBatch composes it: resolve ids up to the first lookup
// failure, read that prefix with one GetRefs, and let a device error on the
// prefix take precedence over the lookup error.
func getBatch(m *MRM, ids []ObjectID) (int, error) {
	var refs []ObjRef
	var lookupErr error
	for _, id := range ids {
		r, err := m.ResolveRef(id)
		if err != nil {
			lookupErr = err
			break
		}
		refs = append(refs, r)
	}
	n, err := m.GetRefs(refs)
	if err != nil {
		return n, err
	}
	return n, lookupErr
}

// TestGetBatchMatchesSequentialGets drives one MRM with Get calls and its
// twin with one by-id batched read (getBatch) over the same ids, for batches
// that succeed, hit an expired object mid-batch, and hit an unknown object
// mid-batch. Done counts, errors, energy accounts and stats must stay
// identical: ResolveRef must fail exactly where Get would, and the coalesced
// read of the prefix must not change any number.
func TestGetBatchMatchesSequentialGets(t *testing.T) {
	seq, bat, ids, _, expIdx := refTwins(t)
	batches := [][]ObjectID{
		ids[:expIdx],
		{ids[1], ids[2], ids[3]},
		{ids[0]},
		{ids[1], ids[expIdx], ids[2]}, // expired mid-batch
		{ids[3], ObjectID(9999)},      // unknown mid-batch
		{},
	}
	for bi, batch := range batches {
		seqDone, seqErr := len(batch), error(nil)
		for i, id := range batch {
			if _, err := seq.Get(id); err != nil {
				seqDone, seqErr = i, err
				break
			}
		}
		batDone, batErr := getBatch(bat, batch)
		if batDone != seqDone {
			t.Fatalf("batch %d: done %d != sequential %d", bi, batDone, seqDone)
		}
		if (batErr == nil) != (seqErr == nil) ||
			(batErr != nil && batErr.Error() != seqErr.Error()) {
			t.Fatalf("batch %d: err %v != sequential %v", bi, batErr, seqErr)
		}
		if ss, sb := seq.Stats(), bat.Stats(); ss != sb {
			t.Fatalf("batch %d: stats diverged: %+v != %+v", bi, ss, sb)
		}
		if es, eb := seq.Energy(), bat.Energy(); es != eb {
			t.Fatalf("batch %d: energy diverged: %+v != %+v", bi, es, eb)
		}
	}
	if _, err := getBatch(bat, []ObjectID{ids[expIdx]}); !errors.Is(err, ErrExpired) {
		t.Fatalf("by-id batch on expired object: err %v, want ErrExpired", err)
	}
}

// TestGetRefsMatchesGetBatch drives one MRM with the by-id batched read
// (getBatch, pinned against a Get loop above) and its twin with one GetRefs
// over references resolved before the expiry tick — including a reference
// whose object expired after resolution — and requires identical done
// counts, errors, stats, and energy. GetRefs is the serving simulator's
// planned read path and must not change any number.
func TestGetRefsMatchesGetBatch(t *testing.T) {
	seq, ref, ids, refs, expIdx := refTwins(t)
	batches := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{1, 2, 3},
		{0},
		{1, expIdx, 2}, // expired mid-batch
		{},
	}
	for bi, idx := range batches {
		var is []ObjectID
		var rs []ObjRef
		for _, k := range idx {
			is = append(is, ids[k])
			rs = append(rs, refs[k])
		}
		seqDone, seqErr := getBatch(seq, is)
		refDone, refErr := ref.GetRefs(rs)
		if refDone != seqDone {
			t.Fatalf("batch %d: done %d != by-id %d", bi, refDone, seqDone)
		}
		if (refErr == nil) != (seqErr == nil) ||
			(refErr != nil && refErr.Error() != seqErr.Error()) {
			t.Fatalf("batch %d: err %v != by-id %v", bi, refErr, seqErr)
		}
		if ss, sr := seq.Stats(), ref.Stats(); ss != sr {
			t.Fatalf("batch %d: stats diverged: %+v != %+v", bi, ss, sr)
		}
		if es, er := seq.Energy(), ref.Energy(); es != er {
			t.Fatalf("batch %d: energy diverged: %+v != %+v", bi, es, er)
		}
	}
	if _, err := ref.GetRefs([]ObjRef{refs[expIdx]}); !errors.Is(err, ErrExpired) {
		t.Fatalf("GetRefs on expired ref: err %v, want ErrExpired", err)
	}
}

// TestGetRefsSurvivesRefresh pins that a reference resolved before a
// refresh-driven relocation reads the object's live extents afterwards:
// GetRefs must match Get on the twin even once the refresh policy has
// rewritten the object elsewhere.
func TestGetRefsSurvivesRefresh(t *testing.T) {
	cfg := smallConfig()
	mk := func() (*MRM, ObjectID) {
		m := newMRM(t, cfg)
		id, _, err := m.Put(8*units.MiB, WriteOptions{Kind: KindWeights, Lifetime: 365 * 24 * time.Hour, Policy: PolicyRefresh})
		if err != nil {
			t.Fatal(err)
		}
		return m, id
	}
	seq, idA := mk()
	ref, idB := mk()
	r, err := ref.ResolveRef(idB)
	if err != nil {
		t.Fatal(err)
	}
	// Advance both twins far enough that the refresh deadline fires at least
	// once (longest class minus margin).
	classes := cfg.Classes
	step := classes[len(classes)-1]
	for i := 0; i < 3; i++ {
		if err := seq.Tick(step); err != nil {
			t.Fatal(err)
		}
		if err := ref.Tick(step); err != nil {
			t.Fatal(err)
		}
	}
	if seq.Stats().Refreshes == 0 {
		t.Fatal("setup: no refresh fired; test exercises nothing")
	}
	if _, err := seq.Get(idA); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.GetRefs([]ObjRef{r}); err != nil {
		t.Fatal(err)
	}
	if ss, sr := seq.Stats(), ref.Stats(); ss != sr {
		t.Fatalf("stats diverged after refresh: %+v != %+v", ss, sr)
	}
	if es, er := seq.Energy(), ref.Energy(); es != er {
		t.Fatalf("energy diverged after refresh: %+v != %+v", es, er)
	}
}

// TestResolveRefErrors pins ResolveRef's error contract: Get's exact errors
// for unknown, deleted, and expired objects.
func TestResolveRefErrors(t *testing.T) {
	m := newMRM(t, smallConfig())
	if _, err := m.ResolveRef(ObjectID(9999)); err == nil || !strings.Contains(err.Error(), "no object 9999") {
		t.Fatalf("unknown id: err %v", err)
	}
	id, _, err := m.Put(units.MiB, WriteOptions{Kind: KindKVCache, Lifetime: time.Minute, Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ResolveRef(id); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired id: err %v, want ErrExpired", err)
	}
	id2, _, err := m.Put(units.MiB, WriteOptions{Kind: KindWeights, Lifetime: time.Hour, Policy: PolicyRefresh})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(id2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ResolveRef(id2); err == nil || !strings.Contains(err.Error(), "no object") {
		t.Fatalf("deleted id: err %v", err)
	}
}

// TestNextDeadlineFireTimes pins NextDeadline against Tick's own thresholds:
// advancing to one instant before the reported time performs no deadline
// housekeeping; advancing to the reported time does. Both refresh (deadline
// minus margin) and drop (deadline) arms are exercised.
func TestNextDeadlineFireTimes(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts WriteOptions
		hit  func(s Stats) int64
	}{
		{"refresh", WriteOptions{Kind: KindWeights, Lifetime: 365 * 24 * time.Hour, Policy: PolicyRefresh}, func(s Stats) int64 { return s.Refreshes }},
		{"drop", WriteOptions{Kind: KindKVCache, Lifetime: time.Minute, Policy: PolicyDrop}, func(s Stats) int64 { return s.Expirations }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMRM(t, smallConfig())
			if _, _, err := m.Put(units.MiB, tc.opts); err != nil {
				t.Fatal(err)
			}
			fire, ok := m.NextDeadline()
			if !ok {
				t.Fatal("NextDeadline reported nothing pending")
			}
			if err := m.Tick(fire - m.Now() - time.Nanosecond); err != nil {
				t.Fatal(err)
			}
			if n := tc.hit(m.Stats()); n != 0 {
				t.Fatalf("housekeeping fired %d times before the reported deadline", n)
			}
			if err := m.Tick(time.Nanosecond); err != nil {
				t.Fatal(err)
			}
			if n := tc.hit(m.Stats()); n == 0 {
				t.Fatal("housekeeping did not fire at the reported deadline")
			}
		})
	}
}

// TestNextDeadlineSkipsStale pins the staleness filter: after a refresh moves
// an object's deadline forward, the superseded heap entry must not be
// reported as the next deadline.
func TestNextDeadlineSkipsStale(t *testing.T) {
	m := newMRM(t, smallConfig())
	if _, _, err := m.Put(units.MiB, WriteOptions{Kind: KindWeights, Lifetime: 365 * 24 * time.Hour, Policy: PolicyRefresh}); err != nil {
		t.Fatal(err)
	}
	first, ok := m.NextDeadline()
	if !ok {
		t.Fatal("NextDeadline reported nothing pending")
	}
	if err := m.Tick(first - m.Now()); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Refreshes == 0 {
		t.Fatal("setup: refresh did not fire")
	}
	next, ok := m.NextDeadline()
	if !ok {
		t.Fatal("NextDeadline lost the refreshed object")
	}
	if next <= m.Now() {
		t.Fatalf("NextDeadline %v is not in the future (now %v): stale entry reported", next, m.Now())
	}
}

// TestReadValidationPrecedence pins the error precedence of GetRefs and Get
// against oracleGet's extent-by-extent zone Reads when a zone under a live
// object has become unreadable behind the control plane's back: reset under
// the object's second extent (a valid prefix is read first), or expired
// under all of it (nothing of it is read). With read faults armed, a device
// error on an earlier read must win over the validation error. Refs are
// read once before the zone changes, so the objects are stamped and only
// the epoch can send the run-charged path back to the controller.
func TestReadValidationPrecedence(t *testing.T) {
	resetSecond := func(m *MRM, x *object) {
		if err := m.zoned.Reset(x.extents[1].zone); err != nil {
			t.Fatal(err)
		}
	}
	expire := func(m *MRM, x *object) {
		if err := m.zoned.Device().Advance(11 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if len(m.zoned.ExpireDue()) == 0 {
			t.Fatal("no zone expired")
		}
	}
	for _, tc := range []struct {
		name   string
		faults bool
		breakX func(m *MRM, x *object)
		want   string
	}{
		{"empty zone mid-object", false, resetSecond, "read from empty zone"},
		{"expired zone", false, expire, "read from expired zone"},
		{"device fault before empty zone", true, resetSecond, "transient fault"},
		{"device fault before expired zone", true, expire, "transient fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() (*MRM, []ObjRef, ObjectID) {
				m := newMRM(t, smallConfig())
				long := WriteOptions{Kind: KindKVCache, Lifetime: 48 * time.Hour, Policy: PolicyDrop}
				a, _, errA := m.Put(512*units.KiB, long)
				x, _, errX := m.Put(24*units.MiB, WriteOptions{Kind: KindKVCache, Lifetime: 5 * time.Minute, Policy: PolicyDrop})
				b, _, errB := m.Put(512*units.KiB, long)
				if err := errors.Join(errA, errX, errB); err != nil {
					t.Fatal(err)
				}
				if n := len(m.objects[x].extents); n != 2 {
					t.Fatalf("object spans %d extents, want 2", n)
				}
				var refs []ObjRef
				for _, id := range []ObjectID{a, x, b} {
					r, err := m.ResolveRef(id)
					if err != nil {
						t.Fatal(err)
					}
					refs = append(refs, r)
				}
				if _, err := m.GetRefs(refs); err != nil {
					t.Fatal(err)
				}
				tc.breakX(m, m.objects[x])
				if tc.faults {
					m.SetFaults(memdev.FaultConfig{Seed: 1, TransientRate: 1})
				}
				return m, refs, x
			}
			seq, seqRefs, x := mk()
			ref, refs, _ := mk()
			compare := func(what string, n, wantN int, err, wantErr error) {
				t.Helper()
				if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s = (%d, %v), oracle (%d, %v)", what, n, err, wantN, wantErr)
				}
				if ss, sr := seq.Stats(), ref.Stats(); ss != sr {
					t.Fatalf("%s: stats diverged: %+v != %+v", what, ss, sr)
				}
				if es, er := seq.Energy(), ref.Energy(); !sameEnergy(es, er) {
					t.Fatalf("%s: energy diverged: %+v != %+v", what, es, er)
				}
				if ds, dr := seq.zoned.Device().Stats(), ref.zoned.Device().Stats(); ds != dr {
					t.Fatalf("%s: device stats diverged: %+v != %+v", what, ds, dr)
				}
			}
			wantN, wantErr := 0, error(nil)
			for _, r := range seqRefs {
				if _, wantErr = oracleGet(seq, (*object)(r)); wantErr != nil {
					break
				}
				wantN++
			}
			n, err := ref.GetRefs(refs)
			compare("GetRefs", n, wantN, err, wantErr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("GetRefs err %v, want %q", err, tc.want)
			}
			_, wantErr = oracleGetID(seq, x)
			_, err = ref.Get(x)
			compare("Get", 0, 0, err, wantErr)
		})
	}
}

// TestDeleteLeavesObjectTable pins the bounded object table: after a long
// put/delete churn the table holds only the objects still stored, a ref to a
// deleted object reads the same error a lookup by id gives, and expired
// objects stay to answer ErrExpired.
func TestDeleteLeavesObjectTable(t *testing.T) {
	m := newMRM(t, smallConfig())
	exp, _, err := m.Put(units.MiB, WriteOptions{Kind: KindKVCache, Lifetime: time.Minute, Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var last ObjRef
	for i := 0; i < 1000; i++ {
		id, _, err := m.Put(8*units.MiB, kvOpts)
		if err != nil {
			t.Fatal(err)
		}
		if last, err = m.ResolveRef(id); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.objects) != 1 {
		t.Fatalf("object table holds %d objects after churn, want the 1 expired one", len(m.objects))
	}
	if _, err := m.Get(exp); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired object: err %v, want ErrExpired", err)
	}
	_, byID := m.Get(m.nextID - 1)
	if _, err := m.GetRefs([]ObjRef{last}); err == nil || err.Error() != byID.Error() {
		t.Fatalf("ref to deleted object: err %v, by id %v", err, byID)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
