package tier

import (
	"testing"
	"time"

	"mrm/internal/core"
	"mrm/internal/memdev"
	"mrm/internal/units"
)

// BenchmarkGetPlanned measures one decode step's planned read on a manager
// shaped like the HBMPlusMRM memory system: 24 GiB of HBM plus 384 GiB of
// MRM in 64 MiB zones under retention-aware placement, holding 13 GiB of
// weights and 64 KV pages of 8 MiB, all of which land on the MRM tier. The
// plan reads the weights and every page, as core's BenchmarkMRMGetRefs
// does, so the difference between the two is the manager's own overhead.
// No ECC budget is armed, so the BER scan is off, as in the serving simulator.
func BenchmarkGetPlanned(b *testing.B) {
	spec := memdev.HBM3E
	spec.Capacity = 24 * units.GiB
	hbm, err := NewDeviceTier("hbm", spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Capacity = 384 * units.GiB
	cfg.ZoneSize = 64 * units.MiB
	mr, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewManager(RetentionAwarePolicy{}, hbm, NewMRMTier("mrm", mr))
	if err != nil {
		b.Fatal(err)
	}
	var p ReadPlan
	add := func(meta Meta) {
		id, _, err := m.Put(meta)
		if err != nil {
			b.Fatal(err)
		}
		if tier, _ := m.TierOf(id); tier != 1 {
			b.Fatalf("%v object placed on tier %d, want the MRM tier", meta.Kind, tier)
		}
		if err := m.PlanAppend(&p, id); err != nil {
			b.Fatal(err)
		}
	}
	add(Meta{Kind: core.KindWeights, Size: 13 * units.GiB, Lifetime: 30 * 24 * time.Hour, ReadHot: true})
	for i := 0; i < 64; i++ {
		add(Meta{Kind: core.KindKVCache, Size: 8 * units.MiB, Lifetime: time.Hour, ReadHot: true})
	}
	if _, err := m.GetPlanned(&p); err != nil { // stamps the objects and fills the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := m.GetPlanned(&p); err != nil || n != p.Len() {
			b.Fatalf("GetPlanned read %d of %d: %v", n, p.Len(), err)
		}
	}
}

// BenchmarkManagerPutBatch measures the manager's write path at the serving
// memory shapes, one batch of eight 8 MiB KV pages stored and then deleted
// per op: /hbm on 192 GiB of HBM under static placement (HBMOnly), /hbm+mrm
// on 24 GiB of HBM plus 384 GiB of MRM in 64 MiB zones under retention-aware
// placement (HBMPlusMRM), where the pages land on the MRM tier. Each batch
// fills one MRM zone, which its deletes empty and reset, and the id tables
// reuse the freed slots, so memory stays flat without a rebuild.
func BenchmarkManagerPutBatch(b *testing.B) {
	hbmOnly := func() *Manager {
		spec := memdev.HBM3E
		spec.Capacity = 192 * units.GiB
		hbm, err := NewDeviceTier("hbm", spec)
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewManager(StaticPolicy{}, hbm)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	hbmMRM := func() *Manager {
		spec := memdev.HBM3E
		spec.Capacity = 24 * units.GiB
		hbm, err := NewDeviceTier("hbm", spec)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Capacity = 384 * units.GiB
		cfg.ZoneSize = 64 * units.MiB
		mr, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewManager(RetentionAwarePolicy{}, hbm, NewMRMTier("mrm", mr))
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	metas := make([]Meta, 8)
	for i := range metas {
		metas[i] = Meta{Kind: core.KindKVCache, Size: 8 * units.MiB, Lifetime: time.Hour, ReadHot: true}
	}
	ids := make([]ObjectID, len(metas))
	lats := make([]time.Duration, len(metas))
	tiers := make([]int, len(metas))
	for _, bc := range []struct {
		name string
		mk   func() *Manager
		tier int
	}{{"hbm", hbmOnly, 0}, {"hbm+mrm", hbmMRM, 1}} {
		b.Run(bc.name, func(b *testing.B) {
			m := bc.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := m.PutBatch(metas, ids, lats, tiers); err != nil || n != len(metas) || tiers[0] != bc.tier {
					b.Fatalf("PutBatch stored %d of %d on tier %d: %v", n, len(metas), tiers[0], err)
				}
				for _, id := range ids {
					if err := m.Delete(id); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
