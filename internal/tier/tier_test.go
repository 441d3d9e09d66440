package tier

import (
	"testing"
	"testing/quick"
	"time"

	"mrm/internal/core"
	"mrm/internal/memdev"
	"mrm/internal/units"
)

func smallHBM(t *testing.T, capacity units.Bytes) *DeviceTier {
	t.Helper()
	spec := memdev.HBM3E
	spec.Capacity = capacity
	d, err := NewDeviceTier("hbm", spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallLPDDR(t *testing.T, capacity units.Bytes) *DeviceTier {
	t.Helper()
	spec := memdev.LPDDR5X
	spec.Capacity = capacity
	d, err := NewDeviceTier("lpddr", spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallMRMTier(t *testing.T, capacity units.Bytes) *MRMTier {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Capacity = capacity
	cfg.ZoneSize = 16 * units.MiB
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewMRMTier("mrm", m)
}

func TestDeviceTierPutGetDelete(t *testing.T) {
	d := smallHBM(t, units.GiB)
	h, lat, err := d.Put(Meta{Kind: core.KindWeights, Size: 64 * units.MiB})
	if err != nil || lat <= 0 {
		t.Fatalf("Put: %v, lat %v", err, lat)
	}
	if _, err := d.Get(h); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(h); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(h); err == nil {
		t.Fatal("deleted handle should fail")
	}
	if err := d.Delete(h); err == nil {
		t.Fatal("double delete should fail")
	}
	if _, _, err := d.Put(Meta{Size: 0}); err == nil {
		t.Fatal("zero-size should fail")
	}
}

func TestDeviceTierAllocatorCoalesces(t *testing.T) {
	d := smallHBM(t, 100*units.MiB)
	var hs []uint64
	for i := 0; i < 4; i++ {
		h, _, err := d.Put(Meta{Size: 25 * units.MiB})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if _, _, err := d.Put(Meta{Size: units.MiB}); err == nil {
		t.Fatal("tier should be full")
	}
	// Free two adjacent middle blocks, then allocate one 50 MiB object:
	// only possible if spans coalesced.
	if err := d.Delete(hs[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(hs[2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Put(Meta{Size: 50 * units.MiB}); err != nil {
		t.Fatalf("coalesced alloc failed: %v", err)
	}
}

func TestDeviceTierInfoAndTraffic(t *testing.T) {
	d := smallHBM(t, units.GiB)
	info := d.Info()
	if info.Free != units.GiB || info.Managed {
		t.Fatalf("info = %+v", info)
	}
	h, _, _ := d.Put(Meta{Size: units.MiB})
	_, _ = d.Get(h)
	r, w := d.Traffic()
	if r != units.MiB || w != units.MiB {
		t.Fatalf("traffic = %v/%v", r, w)
	}
	if err := d.Tick(time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Energy() <= 0 {
		t.Fatal("energy should accrue")
	}
}

func TestMRMTierRoundTrip(t *testing.T) {
	mt := smallMRMTier(t, units.GiB)
	h, lat, err := mt.Put(Meta{Kind: core.KindKVCache, Size: units.MiB, Lifetime: time.Hour})
	if err != nil || lat <= 0 {
		t.Fatalf("Put: %v", err)
	}
	if _, err := mt.Get(h); err != nil {
		t.Fatal(err)
	}
	info := mt.Info()
	if !info.Managed || info.MaxRetention != 7*24*time.Hour {
		t.Fatalf("info = %+v", info)
	}
	if err := mt.Delete(h); err != nil {
		t.Fatal(err)
	}
	if mt.MRM() == nil {
		t.Fatal("MRM accessor nil")
	}
}

func TestMRMTierSoftStateExpires(t *testing.T) {
	mt := smallMRMTier(t, units.GiB)
	h, _, err := mt.Put(Meta{Kind: core.KindKVCache, Size: units.MiB, Lifetime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Get(h); err == nil {
		t.Fatal("expired KV should not be readable")
	}
	// Weights use PolicyRefresh and survive.
	h2, _, err := mt.Put(Meta{Kind: core.KindWeights, Size: units.MiB, Lifetime: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := mt.Tick(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mt.Get(h2); err != nil {
		t.Fatalf("weights should survive via refresh: %v", err)
	}
}

func TestStaticPolicyFillsFastestFirst(t *testing.T) {
	tiers := []Info{
		{Index: 0, Name: "lpddr", Free: units.GiB, ReadBW: 68 * units.GBps},
		{Index: 1, Name: "hbm", Free: units.GiB, ReadBW: 8 * units.TBps},
	}
	idx, err := StaticPolicy{}.Place(Meta{Size: units.MiB}, tiers)
	if err != nil || idx != 1 {
		t.Fatalf("static placed in %d, want 1 (hbm)", idx)
	}
	// Overflow to the slower tier.
	tiers[1].Free = 0
	idx, err = StaticPolicy{}.Place(Meta{Size: units.MiB}, tiers)
	if err != nil || idx != 0 {
		t.Fatalf("overflow placed in %d, want 0", idx)
	}
	tiers[0].Free = 0
	if _, err := (StaticPolicy{}).Place(Meta{Size: units.MiB}, tiers); err == nil {
		t.Fatal("no space should error")
	}
	if (StaticPolicy{}).Name() == "" || (RetentionAwarePolicy{}).Name() == "" {
		t.Fatal("policies need names")
	}
}

func TestRetentionAwarePlacement(t *testing.T) {
	tiers := []Info{
		{Index: 0, Name: "hbm", Free: units.GiB, ReadBW: 8 * units.TBps, ReadEnergyPerBit: 3.9 * units.PicoJoule},
		{Index: 1, Name: "mrm", Free: units.GiB, ReadBW: 9 * units.TBps, ReadEnergyPerBit: units.PicoJoule, Managed: true, MaxRetention: 7 * 24 * time.Hour},
		{Index: 2, Name: "lpddr", Free: units.GiB, ReadBW: 68 * units.GBps, ReadEnergyPerBit: 6 * units.PicoJoule},
	}
	p := RetentionAwarePolicy{}
	// Activations stay in HBM.
	idx, err := p.Place(Meta{Kind: core.KindActivation, Size: units.MiB, Lifetime: time.Second}, tiers)
	if err != nil || idx != 0 {
		t.Fatalf("activation -> %d, want 0 (hbm)", idx)
	}
	// Read-hot KV within retention goes to MRM.
	idx, err = p.Place(Meta{Kind: core.KindKVCache, Size: units.MiB, Lifetime: time.Hour, ReadHot: true}, tiers)
	if err != nil || idx != 1 {
		t.Fatalf("hot KV -> %d, want 1 (mrm)", idx)
	}
	// Weights (long-lived but within managed max retention via refresh
	// policy: lifetime above max retention overflows to HBM first).
	idx, err = p.Place(Meta{Kind: core.KindWeights, Size: units.MiB, Lifetime: 24 * time.Hour, ReadHot: true}, tiers)
	if err != nil || idx != 1 {
		t.Fatalf("weights -> %d, want 1 (mrm)", idx)
	}
	// MRM full: falls back to HBM.
	tiers[1].Free = 0
	idx, err = p.Place(Meta{Kind: core.KindKVCache, Size: units.MiB, Lifetime: time.Hour, ReadHot: true}, tiers)
	if err != nil || idx != 0 {
		t.Fatalf("overflow KV -> %d, want 0", idx)
	}
	// Everything full errors.
	tiers[0].Free, tiers[2].Free = 0, 0
	if _, err := p.Place(Meta{Size: units.MiB}, tiers); err == nil {
		t.Fatal("no space should error")
	}
}

func TestManagerEndToEnd(t *testing.T) {
	hbm := smallHBM(t, 256*units.MiB)
	mrmT := smallMRMTier(t, 256*units.MiB)
	lpddr := smallLPDDR(t, 256*units.MiB)
	m, err := NewManager(RetentionAwarePolicy{}, hbm, mrmT, lpddr)
	if err != nil {
		t.Fatal(err)
	}
	if m.Policy().Name() != "retention-aware" {
		t.Fatal("wrong policy")
	}
	id, lat, err := m.Put(Meta{Kind: core.KindKVCache, Size: 8 * units.MiB, Lifetime: time.Hour, ReadHot: true})
	if err != nil || lat <= 0 {
		t.Fatal(err)
	}
	tr, err := m.TierOf(id)
	if err != nil || tr != 1 {
		t.Fatalf("KV placed in tier %d, want 1 (mrm)", tr)
	}
	if _, from, err := m.Get(id); err != nil || from != 1 {
		t.Fatalf("Get from %d: %v", from, err)
	}
	if m.NumObjects() != 1 {
		t.Fatal("object count wrong")
	}
	// Migrate to LPDDR and read from there.
	if err := m.Migrate(id, 2); err != nil {
		t.Fatal(err)
	}
	if _, from, _ := m.Get(id); from != 2 {
		t.Fatalf("after migrate, read from %d", from)
	}
	// Migrate to same tier is a no-op.
	if err := m.Migrate(id, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Migrate(id, 9); err == nil {
		t.Fatal("bad destination should error")
	}
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(id); err == nil {
		t.Fatal("double delete should error")
	}
	if err := m.Tick(time.Second); err != nil {
		t.Fatal(err)
	}
	if m.TotalEnergy() <= 0 {
		t.Fatal("energy should be positive after traffic + time")
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(nil); err == nil {
		t.Fatal("nil policy should error")
	}
	if _, err := NewManager(StaticPolicy{}); err == nil {
		t.Fatal("no tiers should error")
	}
}

func TestManagerUnknownObject(t *testing.T) {
	hbm := smallHBM(t, units.GiB)
	m, _ := NewManager(StaticPolicy{}, hbm)
	if _, _, err := m.Get(42); err == nil {
		t.Error("unknown Get should error")
	}
	if _, err := m.TierOf(42); err == nil {
		t.Error("unknown TierOf should error")
	}
	if err := m.Migrate(42, 0); err == nil {
		t.Error("unknown Migrate should error")
	}
}

func TestManagerForget(t *testing.T) {
	mrmT := smallMRMTier(t, units.GiB)
	m, _ := NewManager(RetentionAwarePolicy{}, mrmT)
	id, _, err := m.Put(Meta{Kind: core.KindKVCache, Size: units.MiB, Lifetime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Tick(time.Hour) // expires inside the MRM
	m.Forget(id)
	if m.NumObjects() != 0 {
		t.Fatal("Forget should drop the record")
	}
}

func TestManagerReseatMovesOffFailedTier(t *testing.T) {
	hbm := smallHBM(t, 256*units.MiB)
	lpddr := smallLPDDR(t, 256*units.MiB)
	m, err := NewManager(StaticPolicy{}, hbm, lpddr)
	if err != nil {
		t.Fatal(err)
	}
	// Static policy fills the fastest (HBM) tier first.
	id, _, err := m.Put(Meta{Kind: core.KindWeights, Size: 8 * units.MiB, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if tr, _ := m.TierOf(id); tr != 0 {
		t.Fatalf("placed in tier %d, want 0", tr)
	}
	lat, err := m.Reseat(id)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("reseat should cost a write")
	}
	// The failed tier is masked during re-placement, so the copy lands on
	// LPDDR — and the object keeps its identity.
	if tr, _ := m.TierOf(id); tr != 1 {
		t.Fatalf("reseated into tier %d, want 1", tr)
	}
	if _, from, err := m.Get(id); err != nil || from != 1 {
		t.Fatalf("Get after reseat: tier %d, err %v", from, err)
	}
	if m.Reseats() != 1 {
		t.Fatalf("Reseats = %d", m.Reseats())
	}
	if m.NumObjects() != 1 {
		t.Fatal("reseat must not leak or drop objects")
	}
}

func TestManagerReseatSingleTierRestoresInPlace(t *testing.T) {
	hbm := smallHBM(t, 256*units.MiB)
	m, _ := NewManager(StaticPolicy{}, hbm)
	id, _, err := m.Put(Meta{Kind: core.KindWeights, Size: 8 * units.MiB, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// With nowhere else to go, the masked placement fails and Reseat falls
	// back to rewriting the same tier (restore from upstream durable copy).
	if _, err := m.Reseat(id); err != nil {
		t.Fatal(err)
	}
	if tr, _ := m.TierOf(id); tr != 0 {
		t.Fatalf("restored into tier %d, want 0", tr)
	}
	if _, _, err := m.Get(id); err != nil {
		t.Fatal(err)
	}
	if m.Reseats() != 1 {
		t.Fatalf("Reseats = %d", m.Reseats())
	}
}

func TestManagerReseatUnknownObject(t *testing.T) {
	hbm := smallHBM(t, units.GiB)
	m, _ := NewManager(StaticPolicy{}, hbm)
	if _, err := m.Reseat(42); err == nil {
		t.Fatal("unknown object should error")
	}
}

func TestReadTimeParallelTiers(t *testing.T) {
	hbm := smallHBM(t, units.GiB)     // 1 TB/s per stack spec
	lpddr := smallLPDDR(t, units.GiB) // 68 GB/s
	m, _ := NewManager(StaticPolicy{}, hbm, lpddr)
	// 1 GB from HBM (1ms) and 68 MB from LPDDR (1ms): parallel → ~1ms.
	d := m.ReadTime([]units.Bytes{1e9, 68e6})
	if d < 900*time.Microsecond || d > 1100*time.Microsecond {
		t.Fatalf("ReadTime = %v, want ~1ms", d)
	}
	if m.ReadTime(nil) != 0 {
		t.Fatal("empty read plan should take no time")
	}
}

// Property: the allocator never double-allocates, free space is conserved,
// and the free list stays sorted and coalesced (CheckInvariants).
func TestAllocatorProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		spec := memdev.HBM3E
		spec.Capacity = 64 * units.MiB
		d, err := NewDeviceTier("t", spec)
		if err != nil {
			return false
		}
		var handles []uint64
		var used units.Bytes
		for _, op := range ops {
			if op%2 == 0 || len(handles) == 0 {
				size := units.Bytes(op%16+1) * units.MiB
				h, _, err := d.Put(Meta{Size: size})
				if err != nil {
					continue // full is fine
				}
				handles = append(handles, h)
				used += size
			} else {
				h := handles[len(handles)-1]
				handles = handles[:len(handles)-1]
				sz := d.objects.get(h).size
				if err := d.Delete(h); err != nil {
					return false
				}
				used -= sz
			}
			if d.Info().Free != spec.Capacity-used || d.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
