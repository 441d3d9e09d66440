package core

import (
	"testing"
	"time"

	"mrm/internal/units"
)

// TestGetVectoredMatchesLegacyLoop pins Get's vectored read against the
// arithmetic of the extent-by-extent loop it replaced: summed per-extent
// latencies and energies over a multi-zone object. No ECC budget is armed,
// so Get takes the device's fast path, which charges each run of
// equal-size spans' latency as one product.
func TestGetVectoredMatchesLegacyLoop(t *testing.T) {
	m := newMRM(t, smallConfig())
	id, _, err := m.Put(40*units.MiB, WriteOptions{Kind: KindWeights, Lifetime: 24 * time.Hour, Policy: PolicyRefresh})
	if err != nil {
		t.Fatal(err)
	}
	obj := m.objects[id]
	if len(obj.extents) < 2 {
		t.Fatalf("want a multi-extent object, got %d extents", len(obj.extents))
	}
	before := m.energy.Read
	var wantLat time.Duration
	var wantEnergy units.Energy
	for _, ext := range obj.extents {
		res, err := m.zoned.Read(ext.zone, ext.off, ext.size)
		if err != nil {
			t.Fatal(err)
		}
		wantLat += res.Latency
		wantEnergy += res.Energy
	}
	m.energy.Read = before // the reference loop's charges don't count
	gotLat, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if gotLat != wantLat {
		t.Fatalf("Get latency %v != extent-loop %v", gotLat, wantLat)
	}
	if got := m.energy.Read - before; got != wantEnergy {
		t.Fatalf("Get read energy %v != extent-loop %v", got, wantEnergy)
	}
}
