package core

import (
	"slices"
	"testing"
	"time"

	"mrm/internal/memdev"
	"mrm/internal/units"
)

// TestGetRefsRunPathFollowsRestripedObjects pins GetRefs' run-charged path
// against the extent-by-extent oracle on a twin across a refresh that moves
// objects straddling zones to fresh zones, which changes their run
// summaries while their cache stamps go stale. Refreshed weights of 16 KiB
// and 1.5 MiB, and KV pages, are read before and after the refresh; counts,
// stats, energy (bitwise) and the device counters must match the oracle.
func TestGetRefsRunPathFollowsRestripedObjects(t *testing.T) {
	m, o := newFuzzMRM(t), newFuzzMRM(t)
	weights := WriteOptions{Kind: KindWeights, Lifetime: 10 * time.Minute, Policy: PolicyRefresh}
	var refs []ObjRef
	var objs []*object
	for _, x := range []*MRM{m, o} {
		for _, sz := range []units.Bytes{16 * units.KiB, 1536 * units.KiB, 16 * units.KiB, 3 * units.MiB} {
			if _, _, err := x.Put(sz, weights); err != nil {
				t.Fatal(err)
			}
		}
		sizes := []units.Bytes{64 * units.KiB, 64 * units.KiB, 64 * units.KiB}
		if _, err := x.PutBatch(sizes, kvOpts, make([]ObjectID, 3), make([]time.Duration, 3)); err != nil {
			t.Fatal(err)
		}
	}
	for id := ObjectID(0); id < 7; id++ {
		r, err := m.ResolveRef(id)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
		objs = append(objs, o.objects[id])
	}
	read := func(label string) {
		t.Helper()
		n, err := m.GetRefs(refs)
		for _, obj := range objs {
			if _, err := oracleGet(o, obj); err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
		}
		if n != len(refs) || err != nil {
			t.Fatalf("%s: GetRefs = (%d, %v)", label, n, err)
		}
		if sm, so := m.Stats(), o.Stats(); sm != so {
			t.Fatalf("%s: stats %+v, oracle %+v", label, sm, so)
		}
		if em, eo := m.Energy(), o.Energy(); !sameEnergy(em, eo) {
			t.Fatalf("%s: energy %+v, oracle %+v", label, em, eo)
		}
		if dm, do := m.zoned.Device().Stats(), o.zoned.Device().Stats(); dm != do {
			t.Fatalf("%s: device stats %+v, oracle %+v", label, dm, do)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	summary := func() [][]memdev.SizeRun {
		var out [][]memdev.SizeRun
		for _, r := range refs {
			obj := (*object)(r)
			out = append(out, append([]memdev.SizeRun{obj.run0}, obj.runs...))
		}
		return out
	}
	read("before refresh")
	before := summary()
	if len(before[1]) < 2 || len(before[3]) < 3 {
		t.Fatalf("setup: weights do not straddle zones: %v", before)
	}
	for i := 0; i < 4; i++ {
		if err := m.Tick(3 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := o.Tick(3 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Refreshes == 0 {
		t.Fatal("setup: no refresh fired")
	}
	read("after refresh")
	if after := summary(); slices.EqualFunc(before, after, slices.Equal[[]memdev.SizeRun]) {
		t.Fatalf("setup: the refresh left every run summary as it was: %v", after)
	}
	for i := 0; i < 50; i++ {
		read("repeated")
	}
}
