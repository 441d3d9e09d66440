package tier

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mrm/internal/core"
	"mrm/internal/fault"
	"mrm/internal/memdev"
	"mrm/internal/units"
)

// compareManagerPutTwins drives seq with one-object Puts (stopping at the
// first error) and bat with one PutBatch over the same metas, then requires
// identical done counts, errors, ids, latencies, tier choices, id-allocation
// state, free space, backend traffic, and backend energy, and every backend's
// invariants to hold on both.
func compareManagerPutTwins(t *testing.T, label string, seq, bat *Manager, metas []Meta) (int, error) {
	t.Helper()
	seqIDs := make([]ObjectID, len(metas))
	seqLats := make([]time.Duration, len(metas))
	seqTiers := make([]int, len(metas))
	seqDone, seqErr := len(metas), error(nil)
	for i, meta := range metas {
		id, lat, err := seq.Put(meta)
		if err != nil {
			seqDone, seqErr = i, err
			break
		}
		ti, err := seq.TierOf(id)
		if err != nil {
			t.Fatalf("%s: TierOf(%d): %v", label, id, err)
		}
		seqIDs[i], seqLats[i], seqTiers[i] = id, lat, ti
	}
	batIDs := make([]ObjectID, len(metas))
	batLats := make([]time.Duration, len(metas))
	batTiers := make([]int, len(metas))
	batDone, batErr := bat.PutBatch(metas, batIDs, batLats, batTiers)
	if batDone != seqDone {
		t.Fatalf("%s: done %d != one at a time %d (err %v vs %v)", label, batDone, seqDone, batErr, seqErr)
	}
	if (batErr == nil) != (seqErr == nil) ||
		(batErr != nil && batErr.Error() != seqErr.Error()) {
		t.Fatalf("%s: err %q != one at a time %q", label, batErr, seqErr)
	}
	for i := 0; i < seqDone; i++ {
		if batIDs[i] != seqIDs[i] || batLats[i] != seqLats[i] || batTiers[i] != seqTiers[i] {
			t.Fatalf("%s obj %d: (id %d, lat %v, tier %d) != one at a time (id %d, lat %v, tier %d)",
				label, i, batIDs[i], batLats[i], batTiers[i], seqIDs[i], seqLats[i], seqTiers[i])
		}
	}
	if seq.nextID != bat.nextID {
		t.Fatalf("%s: nextID diverged: %d != %d", label, seq.nextID, bat.nextID)
	}
	if sn, bn := seq.NumObjects(), bat.NumObjects(); sn != bn {
		t.Fatalf("%s: object count diverged: %d != %d", label, sn, bn)
	}
	sameTierState(t, label, bat, seq)
	checkBackends(t, label, seq)
	checkBackends(t, label, bat)
	return batDone, batErr
}

// sameTierState requires every tier of m to report pre's free bytes,
// traffic, and energy.
func sameTierState(t *testing.T, label string, m, pre *Manager) {
	t.Helper()
	mi, pi := m.Tiers(), pre.Tiers()
	for ti := range pi {
		if mi[ti].Free != pi[ti].Free {
			t.Fatalf("%s tier %d: free %v, twin %v", label, ti, mi[ti].Free, pi[ti].Free)
		}
		mr, mw := m.tiers[ti].Traffic()
		pr, pw := pre.tiers[ti].Traffic()
		if mr != pr || mw != pw {
			t.Fatalf("%s tier %d: traffic (%v,%v), twin (%v,%v)", label, ti, mr, mw, pr, pw)
		}
		if me, pe := m.tiers[ti].Energy(), pre.tiers[ti].Energy(); me != pe {
			t.Fatalf("%s tier %d: energy %v, twin %v", label, ti, me, pe)
		}
	}
}

// checkBackends runs every backend's invariant checker.
func checkBackends(t *testing.T, label string, m *Manager) {
	t.Helper()
	for i, b := range m.Backends() {
		var err error
		switch b := b.(type) {
		case *DeviceTier:
			err = b.CheckInvariants()
		case *MRMTier:
			err = b.MRM().CheckInvariants()
		}
		if err != nil {
			t.Fatalf("%s tier %d: %v", label, i, err)
		}
	}
}

// storeManagerPrefix runs PutBatch(metas[:n]) on pre, which must store all
// of it.
func storeManagerPrefix(t *testing.T, label string, pre *Manager, metas []Meta, n int) {
	t.Helper()
	if got, err := pre.PutBatch(metas[:n], make([]ObjectID, n), make([]time.Duration, n), make([]int, n)); got != n || err != nil {
		t.Fatalf("%s: prefix twin stored %d of %d: %v", label, got, n, err)
	}
}

// samePlacement requires m's placement state to equal pre's: the next id,
// every placed object's tier, handle and meta, and every device tier's free
// list, free bytes and handles. With exact set, where the failure issued no
// device write, every tier's free bytes, traffic, and energy must match too.
func samePlacement(t *testing.T, label string, m, pre *Manager, exact bool) {
	t.Helper()
	if m.nextID != pre.nextID || !maps.Equal(m.objects, pre.objects) {
		t.Fatalf("%s: next id %d, objects %v; prefix twin %d, %v", label, m.nextID, m.objects, pre.nextID, pre.objects)
	}
	for ti, b := range m.tiers {
		d, ok := b.(*DeviceTier)
		if !ok {
			continue
		}
		p := pre.tiers[ti].(*DeviceTier)
		if !slices.Equal(d.free, p.free) || d.freeB != p.freeB || d.nextID != p.nextID || !maps.Equal(d.objects, p.objects) {
			t.Fatalf("%s tier %d: free list %v (%v), next handle %d; prefix twin %v (%v), %d",
				label, ti, d.free, d.freeB, d.nextID, p.free, p.freeB, p.nextID)
		}
	}
	if exact {
		sameTierState(t, label+" vs prefix twin", m, pre)
	}
}

// putManagers builds n identical HBM+MRM managers for write-path twin tests:
// a small HBM tier that fills quickly so batches straddle tiers, and a larger
// MRM tier behind it.
func putManagers(t *testing.T, policy Policy, hbmCap units.Bytes, n int) []*Manager {
	t.Helper()
	out := make([]*Manager, n)
	for i := range out {
		m, err := NewManager(policy, smallHBM(t, hbmCap), smallMRMTier(t, units.GiB))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

func kvMeta(size units.Bytes) Meta {
	return Meta{Kind: core.KindKVCache, Size: size, Lifetime: time.Hour}
}

// TestManagerPutBatchMatchesPuts covers the clean path and validation
// failures: single-tier runs, batches whose placements straddle tiers (run
// splits), mixed data kinds (MRM-side write-option run splits), zero-size
// objects mid-batch, and batches that run every tier out of room. Each batch
// is checked against one-object Puts and against a prefix twin that stored
// only the objects before the failure.
func TestManagerPutBatchMatchesPuts(t *testing.T) {
	cases := []struct {
		name  string
		metas []Meta
	}{
		{"single", []Meta{kvMeta(512 * units.KiB)}},
		{"one-tier-run", []Meta{kvMeta(256 * units.KiB), kvMeta(256 * units.KiB), kvMeta(256 * units.KiB)}},
		{"straddles-tiers", []Meta{
			kvMeta(512 * units.KiB), kvMeta(8 * units.MiB),
			kvMeta(512 * units.KiB), kvMeta(8 * units.MiB),
		}},
		{"mixed-kinds", []Meta{
			{Kind: core.KindWeights, Size: 8 * units.MiB, Lifetime: 24 * time.Hour},
			{Kind: core.KindKVCache, Size: 8 * units.MiB, Lifetime: time.Hour},
			{Kind: core.KindKVCache, Size: 8 * units.MiB, Lifetime: 2 * time.Hour},
			{Kind: core.KindWeights, Size: 8 * units.MiB, Lifetime: 24 * time.Hour},
		}},
		{"zero-size-mid-batch", []Meta{kvMeta(512 * units.KiB), kvMeta(0), kvMeta(512 * units.KiB)}},
		{"zero-size-first", []Meta{kvMeta(0), kvMeta(512 * units.KiB)}},
		{"no-tier-fits", []Meta{kvMeta(512 * units.KiB), kvMeta(4 * units.GiB), kvMeta(512 * units.KiB)}},
	}
	for _, tc := range cases {
		comparePutTwinsBothWays(t, tc.name, putManagers(t, StaticPolicy{}, 4*units.MiB, 3), tc.metas)
	}
}

// comparePutTwinsBothWays runs the twin comparison on ms[0] and ms[1] and
// the prefix-twin comparison on ms[1] and ms[2], then repeats both for a
// follow-up single object, so divergence that only shows up in later
// behavior (free-list shape, id allocation) is caught too.
func comparePutTwinsBothWays(t *testing.T, label string, ms []*Manager, metas []Meta) {
	t.Helper()
	seq, bat, pre := ms[0], ms[1], ms[2]
	done, _ := compareManagerPutTwins(t, label, seq, bat, metas)
	storeManagerPrefix(t, label, pre, metas, done)
	samePlacement(t, label, bat, pre, true)
	followup := []Meta{kvMeta(128 * units.KiB)}
	compareManagerPutTwins(t, label+"/followup", seq, bat, followup)
	storeManagerPrefix(t, label+"/followup", pre, followup, 1)
	samePlacement(t, label+"/followup", bat, pre, true)
}

// TestManagerPutBatchRetentionAware repeats the twin check under the
// retention-aware policy, whose placements depend on kind and lifetime.
func TestManagerPutBatchRetentionAware(t *testing.T) {
	metas := []Meta{
		{Kind: core.KindWeights, Size: 16 * units.MiB, Lifetime: 30 * 24 * time.Hour},
		{Kind: core.KindActivation, Size: 512 * units.KiB, Lifetime: time.Millisecond},
		{Kind: core.KindKVCache, Size: 4 * units.MiB, Lifetime: time.Hour},
		{Kind: core.KindActivation, Size: 512 * units.KiB, Lifetime: time.Millisecond},
		{Kind: core.KindKVCache, Size: 4 * units.MiB, Lifetime: 90 * 24 * time.Hour},
	}
	comparePutTwinsBothWays(t, "retention-aware", putManagers(t, RetentionAwarePolicy{}, 64*units.MiB, 3), metas)
}

// TestManagerPutBatchUnderWriteFaults is the manager-level write-fault gate:
// with program failures armed on every backend, one-object Puts and a batch
// must surface the error at the same object index with identical
// accounting, and the batch must leave the placements, device free lists and
// handles of a prefix twin that stored only the objects before the failure,
// with every backend's invariants holding. Each round starts three managers
// from the same random history of puts, deletes and Ticks under the same
// fault streams.
func TestManagerPutBatchUnderWriteFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sawFault := false
	for round := 0; round < 50; round++ {
		faults := memdev.FaultConfig{Seed: uint64(17 + round), WriteFaultRate: 0.1}
		var history []func(m *Manager)
		for k := rng.Intn(8); k > 0; k-- {
			meta := kvMeta(units.Bytes(1+rng.Intn(16)) * 256 * units.KiB)
			del := ObjectID(rng.Intn(6))
			dt := time.Duration(rng.Int63n(int64(time.Minute)))
			history = append(history, func(m *Manager) {
				_, _, _ = m.Put(meta)
				_ = m.Delete(del)
				_ = m.Tick(dt)
			})
		}
		ms := putManagers(t, StaticPolicy{}, 32*units.MiB, 3)
		for _, m := range ms {
			for _, b := range m.Backends() {
				b.(Faultable).SetFaults(faults)
			}
			for _, h := range history {
				h(m)
			}
		}
		n := 1 + rng.Intn(6)
		metas := make([]Meta, n)
		for i := range metas {
			metas[i] = kvMeta(units.Bytes(1+rng.Intn(16)) * 256 * units.KiB)
		}
		done, err := compareManagerPutTwins(t, "round", ms[0], ms[1], metas)
		if errors.Is(err, fault.ErrUncorrectable) {
			sawFault = true
		}
		storeManagerPrefix(t, "round", ms[2], metas, done)
		samePlacement(t, "round", ms[1], ms[2], false)
	}
	if !sawFault {
		t.Fatal("fault rate never fired; the test exercised nothing")
	}
}

// TestDeviceTierPutBatchRewindsFreeList pins the device-error rollback: after
// a mid-batch program failure, the free list, free-byte count, id space and
// device counters must match one-object Puts exactly, and the free list,
// free bytes, handles and objects must match a prefix twin that stored only
// the objects before the failure: the failing object's span is back on the
// free list.
func TestDeviceTierPutBatchRewindsFreeList(t *testing.T) {
	faults := memdev.FaultConfig{Seed: 3, WriteFaultRate: 0.2}
	rng := rand.New(rand.NewSource(31))
	failed := 0
	for round := 0; round < 40; round++ {
		seq := smallHBM(t, 64*units.MiB)
		bat := smallHBM(t, 64*units.MiB)
		pre := smallHBM(t, 64*units.MiB)
		seq.SetFaults(faults)
		bat.SetFaults(faults)
		pre.SetFaults(faults)
		n := 1 + rng.Intn(8)
		metas := make([]Meta, n)
		for i := range metas {
			metas[i] = kvMeta(units.Bytes(1+rng.Intn(8)) * units.MiB)
		}
		seqDone, seqErr := n, error(nil)
		for i, m := range metas {
			if _, _, err := seq.Put(m); err != nil {
				seqDone, seqErr = i, err
				break
			}
		}
		handles := make([]uint64, n)
		lats := make([]time.Duration, n)
		batDone, batErr := bat.PutBatch(metas, handles, lats)
		if batDone != seqDone {
			t.Fatalf("round %d: done %d != one at a time %d", round, batDone, seqDone)
		}
		if (batErr == nil) != (seqErr == nil) ||
			(batErr != nil && batErr.Error() != seqErr.Error()) {
			t.Fatalf("round %d: err %q != one at a time %q", round, batErr, seqErr)
		}
		if batDone < n {
			failed++
		}
		if !slices.Equal(seq.free, bat.free) {
			t.Fatalf("round %d: free list %+v != one at a time %+v", round, bat.free, seq.free)
		}
		if seq.freeB != bat.freeB || seq.nextID != bat.nextID {
			t.Fatalf("round %d: (freeB %v, nextID %d) != one at a time (%v, %d)",
				round, bat.freeB, bat.nextID, seq.freeB, seq.nextID)
		}
		if ss, bs := seq.dev.Stats(), bat.dev.Stats(); ss != bs {
			t.Fatalf("round %d: device stats %+v != one at a time %+v", round, bs, ss)
		}
		if got, err := pre.PutBatch(metas[:batDone], handles, lats); got != batDone || err != nil {
			t.Fatalf("round %d: prefix twin stored %d of %d: %v", round, got, batDone, err)
		}
		if !slices.Equal(pre.free, bat.free) || pre.freeB != bat.freeB || pre.nextID != bat.nextID || !maps.Equal(pre.objects, bat.objects) {
			t.Fatalf("round %d: free list %+v (%v), next handle %d; prefix twin %+v (%v), %d",
				round, bat.free, bat.freeB, bat.nextID, pre.free, pre.freeB, pre.nextID)
		}
		if err := bat.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if failed == 0 {
		t.Fatal("no batch failed; the fault rate exercised nothing")
	}
}

// TestDeviceTierFailedPutsKeepFreeList fails every device write on two
// HBM3E tiers, three 1 GiB objects through Put on one and through PutBatch
// on the other: each failed object's span must go back to the free list, so
// Info().Free keeps equal to the list's sum and CheckInvariants passes.
func TestDeviceTierFailedPutsKeepFreeList(t *testing.T) {
	put := func(d *DeviceTier, m Meta) error { _, _, err := d.Put(m); return err }
	putBatch := func(d *DeviceTier, m Meta) error {
		_, err := d.PutBatch([]Meta{m}, make([]uint64, 1), make([]time.Duration, 1))
		return err
	}
	for _, tc := range []struct {
		name  string
		store func(*DeviceTier, Meta) error
	}{{"Put", put}, {"PutBatch", putBatch}} {
		name, store := tc.name, tc.store
		d, err := NewDeviceTier("hbm", memdev.HBM3E)
		if err != nil {
			t.Fatal(err)
		}
		d.SetFaults(memdev.FaultConfig{Seed: 1, WriteFaultRate: 1})
		for i := 0; i < 3; i++ {
			if err := store(d, kvMeta(units.GiB)); !errors.Is(err, fault.ErrUncorrectable) {
				t.Fatalf("%s %d: %v, want a write fault", name, i, err)
			}
		}
		var listed units.Bytes
		for _, f := range d.free {
			listed += f.size
		}
		if free := d.Info().Free; free != listed || free != memdev.HBM3E.Capacity {
			t.Fatalf("%s: Info().Free %v, free list sums to %v, capacity %v", name, free, listed, memdev.HBM3E.Capacity)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestManagerPutBatchShortSlices(t *testing.T) {
	m := putManagers(t, StaticPolicy{}, 4*units.MiB, 1)[0]
	metas := []Meta{kvMeta(units.KiB), kvMeta(units.KiB)}
	if _, err := m.PutBatch(metas, make([]ObjectID, 1), make([]time.Duration, 2), make([]int, 2)); err == nil {
		t.Fatal("want error for short ids slice")
	}
	if _, err := m.PutBatch(metas, make([]ObjectID, 2), make([]time.Duration, 1), make([]int, 2)); err == nil {
		t.Fatal("want error for short lats slice")
	}
	if _, err := m.PutBatch(metas, make([]ObjectID, 2), make([]time.Duration, 2), make([]int, 1)); err == nil {
		t.Fatal("want error for short tiers slice")
	}
	if done, err := m.PutBatch(nil, nil, nil, nil); done != 0 || err != nil {
		t.Fatalf("empty batch: (%d, %v), want (0, nil)", done, err)
	}
}
