package core

import (
	"cmp"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mrm/internal/memdev"
	"mrm/internal/units"
)

// comparePutTwins drives seq with one-object Puts (stopping at the first
// error) and bat with one PutBatch over the same sizes, then requires
// identical done counts, errors, ids, latencies, stats, energy accounts,
// device-side accounting, free-space view, and id-allocation state, and
// CheckInvariants to pass on both. It returns the batch's done count.
func comparePutTwins(t *testing.T, label string, seq, bat *MRM, sizes []units.Bytes, opts WriteOptions) int {
	t.Helper()
	seqIDs := make([]ObjectID, len(sizes))
	seqLats := make([]time.Duration, len(sizes))
	seqDone, seqErr := len(sizes), error(nil)
	for i, size := range sizes {
		id, lat, err := seq.Put(size, opts)
		if err != nil {
			seqDone, seqErr = i, err
			break
		}
		seqIDs[i], seqLats[i] = id, lat
	}
	batIDs := make([]ObjectID, len(sizes))
	batLats := make([]time.Duration, len(sizes))
	batDone, batErr := bat.PutBatch(sizes, opts, batIDs, batLats)
	if batDone != seqDone {
		t.Fatalf("%s: done %d != one at a time %d (err %v vs %v)", label, batDone, seqDone, batErr, seqErr)
	}
	if (batErr == nil) != (seqErr == nil) ||
		(batErr != nil && batErr.Error() != seqErr.Error()) {
		t.Fatalf("%s: err %q != one at a time %q", label, batErr, seqErr)
	}
	for i := 0; i < seqDone; i++ {
		if batIDs[i] != seqIDs[i] || batLats[i] != seqLats[i] {
			t.Fatalf("%s obj %d: (id %d, lat %v) != one at a time (id %d, lat %v)",
				label, i, batIDs[i], batLats[i], seqIDs[i], seqLats[i])
		}
	}
	if ss, sb := seq.Stats(), bat.Stats(); ss != sb {
		t.Fatalf("%s: stats diverged: %+v != %+v", label, ss, sb)
	}
	if es, eb := seq.Energy(), bat.Energy(); !sameEnergy(es, eb) {
		t.Fatalf("%s: energy diverged: %+v != %+v", label, es, eb)
	}
	if ds, db := seq.zoned.Device().Stats(), bat.zoned.Device().Stats(); ds != db {
		t.Fatalf("%s: device stats diverged: %+v != %+v", label, ds, db)
	}
	if es, eb := seq.zoned.Device().Energy(), bat.zoned.Device().Energy(); es != eb {
		t.Fatalf("%s: device energy diverged: %+v != %+v", label, es, eb)
	}
	if fs, fb := seq.FreeBytes(), bat.FreeBytes(); fs != fb {
		t.Fatalf("%s: free bytes diverged: %v != %v", label, fs, fb)
	}
	if seq.nextID != bat.nextID {
		t.Fatalf("%s: nextID diverged: %d != %d", label, seq.nextID, bat.nextID)
	}
	for c := range seq.cfg.Classes {
		if seq.openZone[Class(c)] != bat.openZone[Class(c)] {
			t.Fatalf("%s: openZone[%d] diverged: %d != %d",
				label, c, seq.openZone[Class(c)], bat.openZone[Class(c)])
		}
	}
	for _, x := range []*MRM{seq, bat} {
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	return batDone
}

// storePrefix runs PutBatch(sizes[:n]) on pre, which must store all of it.
func storePrefix(t *testing.T, label string, pre *MRM, sizes []units.Bytes, n int, opts WriteOptions) {
	t.Helper()
	if got, err := pre.PutBatch(sizes[:n], opts, make([]ObjectID, n), make([]time.Duration, n)); got != n || err != nil {
		t.Fatalf("%s: prefix twin stored %d of %d: %v", label, got, n, err)
	}
}

// sameControlPlane requires m's registered state to equal pre's: the object
// table (ids, sizes, extents, deadlines, states), zone membership and class
// labels, the deadline heap, the next id, the open zones, and the Puts and
// BytesWritten counts. With exact set, where the failure issued no device
// write, the zones, the energy account and the device counters must match
// too; otherwise a latched chunk of the failed object may hold zone space.
func sameControlPlane(t *testing.T, label string, m, pre *MRM, exact bool) {
	t.Helper()
	if len(m.objects) != len(pre.objects) || m.nextID != pre.nextID {
		t.Fatalf("%s: %d objects, next id %d; prefix twin %d, %d", label, len(m.objects), m.nextID, len(pre.objects), pre.nextID)
	}
	for id, o := range m.objects {
		p := pre.objects[id]
		if p == nil || o.size != p.size || o.deadline != p.deadline || o.state != p.state || !slices.Equal(o.extents, p.extents) {
			t.Fatalf("%s: object %d is %+v, prefix twin %+v", label, id, o, p)
		}
	}
	for zid := range m.zones {
		if !maps.Equal(m.zones[zid].objects, pre.zones[zid].objects) {
			t.Fatalf("%s: zone %d members %v, prefix twin %v", label, zid, m.zones[zid].objects, pre.zones[zid].objects)
		}
		if len(m.zones[zid].objects) > 0 && m.zones[zid].class != pre.zones[zid].class {
			t.Fatalf("%s: zone %d class %d, prefix twin %d", label, zid, m.zones[zid].class, pre.zones[zid].class)
		}
	}
	heapOf := func(x *MRM) []deadlineItem {
		h := slices.Clone([]deadlineItem(x.heap))
		slices.SortFunc(h, func(a, b deadlineItem) int {
			return cmp.Or(cmp.Compare(a.deadline, b.deadline), cmp.Compare(a.id, b.id))
		})
		return h
	}
	if hm, hp := heapOf(m), heapOf(pre); !slices.Equal(hm, hp) {
		t.Fatalf("%s: deadline heap %v, prefix twin %v", label, hm, hp)
	}
	if sm, sp := m.Stats(), pre.Stats(); sm.Puts != sp.Puts || sm.BytesWritten != sp.BytesWritten {
		t.Fatalf("%s: %d puts of %v, prefix twin %d of %v", label, sm.Puts, sm.BytesWritten, sp.Puts, sp.BytesWritten)
	}
	if !exact {
		return
	}
	if !maps.Equal(m.openZone, pre.openZone) {
		t.Fatalf("%s: open zones %v, prefix twin %v", label, m.openZone, pre.openZone)
	}
	for zid := range m.zones {
		zm, _ := m.zoned.Zone(zid)
		zp, _ := pre.zoned.Zone(zid)
		if zm != zp {
			t.Fatalf("%s: zone %+v, prefix twin %+v", label, zm, zp)
		}
	}
	if em, ep := m.Energy(), pre.Energy(); !sameEnergy(em, ep) {
		t.Fatalf("%s: energy %+v, prefix twin %+v", label, em, ep)
	}
	if dm, dp := m.zoned.Device().Stats(), pre.zoned.Device().Stats(); dm != dp {
		t.Fatalf("%s: device stats %+v, prefix twin %+v", label, dm, dp)
	}
}

var kvOpts = WriteOptions{Kind: KindKVCache, Lifetime: time.Hour, Policy: PolicyDrop}

// TestPutBatchMatchesSequentialPuts covers the clean path and control-plane
// validation failures — batches that span zones, fill zones exactly, and
// contain a zero-size object mid-batch — against one-object Puts, and each
// failure against a prefix twin that stored only the objects before it: the
// failure issues no device write and leaves the twin's exact state.
func TestPutBatchMatchesSequentialPuts(t *testing.T) {
	zone := smallConfig().ZoneSize
	cases := []struct {
		name  string
		sizes []units.Bytes
	}{
		{"single", []units.Bytes{512 * units.KiB}},
		{"pages", []units.Bytes{64 * units.KiB, 64 * units.KiB, 64 * units.KiB, 64 * units.KiB}},
		{"spans-zones", []units.Bytes{40 * units.MiB, 512 * units.KiB, 24 * units.MiB}},
		{"fills-zone-exactly", []units.Bytes{zone, 512 * units.KiB, zone - 512*units.KiB}},
		{"zero-size-mid-batch", []units.Bytes{512 * units.KiB, 0, 512 * units.KiB}},
		{"zero-size-first", []units.Bytes{0, 512 * units.KiB}},
	}
	followup := []units.Bytes{256 * units.KiB}
	for _, tc := range cases {
		seq, bat, pre := newMRM(t, smallConfig()), newMRM(t, smallConfig()), newMRM(t, smallConfig())
		done := comparePutTwins(t, tc.name, seq, bat, tc.sizes, kvOpts)
		storePrefix(t, tc.name, pre, tc.sizes, done, kvOpts)
		sameControlPlane(t, tc.name, bat, pre, true)
		// The three must also agree on everything that happens next.
		comparePutTwins(t, tc.name+"/followup", seq, bat, followup, kvOpts)
		storePrefix(t, tc.name+"/followup", pre, followup, 1, kvOpts)
		sameControlPlane(t, tc.name+"/followup", bat, pre, true)
	}
}

func TestPutBatchOutOfSpaceMidBatch(t *testing.T) {
	seq, bat, pre := newMRM(t, smallConfig()), newMRM(t, smallConfig()), newMRM(t, smallConfig())
	// Fill all but one zone, then batch more than fits: the second object
	// fills the last zone's tail and then finds no zone, so planning stops
	// before it, and the batch stores only the first, as the prefix twin does.
	fill := []units.Bytes{seq.Capacity() - seq.cfg.ZoneSize}
	comparePutTwins(t, "fill", seq, bat, fill, kvOpts)
	storePrefix(t, "fill", pre, fill, 1, kvOpts)
	over := []units.Bytes{8 * units.MiB, 16 * units.MiB, 8 * units.MiB}
	if done := comparePutTwins(t, "overflow", seq, bat, over, kvOpts); done != 1 {
		t.Fatalf("overflow stored %d objects, want 1", done)
	}
	storePrefix(t, "overflow", pre, over, 1, kvOpts)
	sameControlPlane(t, "overflow", bat, pre, true)
	// The failed object claimed none of the last zone's 8 MiB tail.
	if free := bat.FreeBytes(); free != 8*units.MiB {
		t.Fatalf("free bytes after the failure: %v, want 8 MiB", free)
	}
	n, err := bat.PutBatch([]units.Bytes{8 * units.MiB, units.MiB}, kvOpts, make([]ObjectID, 2), make([]time.Duration, 2))
	if n != 1 || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("once full: stored %d, err %v; want 1 and ErrNoSpace", n, err)
	}
	if err := bat.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPutBatchMatchesSequentialUnderWriteFaults is the write-path fault gate:
// with injected program failures armed, a batch and one-object Puts must
// report identical fault counters and surface the error at the same object
// index, and the batch must leave the registered state of a prefix twin that
// stored only the objects before the failure. Each round starts three MRMs
// from the same random history of puts, deletes and Ticks under the same
// fault streams. Zones are 1 MiB, so most objects take several chunks and a
// fault often strikes after some of the failing object's chunks latched.
func TestPutBatchMatchesSequentialUnderWriteFaults(t *testing.T) {
	cfg := smallConfig()
	cfg.ZoneSize = units.MiB
	rng := rand.New(rand.NewSource(5))
	faulted, latched := 0, 0
	for round := 0; round < 60; round++ {
		faults := memdev.FaultConfig{Seed: uint64(21 + round), WriteFaultRate: 0.08}
		var history []func(x *MRM)
		for k := rng.Intn(6); k > 0; k-- {
			size := units.Bytes(1+rng.Intn(64)) * 64 * units.KiB
			dt := time.Duration(rng.Int63n(int64(5 * time.Minute)))
			del := ObjectID(rng.Intn(4))
			history = append(history, func(x *MRM) {
				_, _, _ = x.Put(size, kvOpts)
				_ = x.Delete(del)
				_ = x.Tick(dt)
			})
		}
		mk := func() *MRM {
			x := newMRM(t, cfg)
			x.SetFaults(faults)
			for _, h := range history {
				h(x)
			}
			return x
		}
		n := 1 + rng.Intn(6)
		sizes := make([]units.Bytes, n)
		for i := range sizes {
			sizes[i] = units.Bytes(1+rng.Intn(64)) * 64 * units.KiB
		}
		seq, bat, pre := mk(), mk(), mk()
		done := comparePutTwins(t, "round", seq, bat, sizes, kvOpts)
		if done < n {
			faulted++
		}
		storePrefix(t, "round", pre, sizes, done, kvOpts)
		sameControlPlane(t, "round", bat, pre, false)
		if bat.FreeBytes() < pre.FreeBytes() {
			latched++
		}
	}
	if faulted == 0 || latched == 0 {
		t.Fatalf("%d batches failed, %d after a latched chunk; the fault rate exercised too little", faulted, latched)
	}
}

// TestPutBatchShortOutputSlices pins the argument validation.
func TestPutBatchShortOutputSlices(t *testing.T) {
	m := newMRM(t, smallConfig())
	if _, err := m.PutBatch(make([]units.Bytes, 2), kvOpts,
		make([]ObjectID, 1), make([]time.Duration, 2)); err == nil {
		t.Fatal("want error for short ids slice")
	}
	if _, err := m.PutBatch(make([]units.Bytes, 2), kvOpts,
		make([]ObjectID, 2), make([]time.Duration, 1)); err == nil {
		t.Fatal("want error for short lats slice")
	}
	if done, err := m.PutBatch(nil, kvOpts, nil, nil); done != 0 || err != nil {
		t.Fatalf("empty batch: (%d, %v), want (0, nil)", done, err)
	}
}

// TestPutLatencyMatchesPerChunkArithmetic pins the write routine's hoisted
// write-cost lookups: the returned latency must equal the worst per-extent
// class write latency + transfer time, recomputed from first principles.
func TestPutLatencyMatchesPerChunkArithmetic(t *testing.T) {
	m := newMRM(t, smallConfig())
	opts := WriteOptions{Kind: KindWeights, Lifetime: 24 * time.Hour, Policy: PolicyRefresh}
	id, lat, err := m.Put(40*units.MiB, opts)
	if err != nil {
		t.Fatal(err)
	}
	obj := m.objects[id]
	if len(obj.extents) < 2 {
		t.Fatalf("want a multi-extent object, got %d extents", len(obj.extents))
	}
	op := m.ops[obj.class]
	wbw := m.zoned.Device().Spec().WriteBW
	var want time.Duration
	for _, ext := range obj.extents {
		if l := op.WriteLatency + wbw.Time(ext.size); l > want {
			want = l
		}
	}
	if lat != want {
		t.Fatalf("Put latency %v != per-chunk arithmetic %v", lat, want)
	}
}
