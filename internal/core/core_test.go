package core

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"mrm/internal/cellphys"
	"mrm/internal/ecc"
	"mrm/internal/units"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Capacity = 2 * units.GiB
	cfg.ZoneSize = 16 * units.MiB
	return cfg
}

func newMRM(t *testing.T, cfg Config) *MRM {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Classes = nil
	if _, err := New(cfg); err == nil {
		t.Error("no classes should error")
	}
	cfg = smallConfig()
	cfg.Classes = []time.Duration{time.Hour, time.Minute}
	if _, err := New(cfg); err == nil {
		t.Error("unsorted classes should error")
	}
	cfg = smallConfig()
	cfg.Classes = []time.Duration{time.Nanosecond}
	if _, err := New(cfg); err == nil {
		t.Error("class below technology minimum should error")
	}
	cfg = smallConfig()
	cfg.RefreshMargin = 0.9
	if _, err := New(cfg); err == nil {
		t.Error("huge refresh margin should error")
	}
}

func TestDataKindAndPolicyStrings(t *testing.T) {
	if KindWeights.String() != "weights" || KindKVCache.String() != "kvcache" ||
		KindActivation.String() != "activation" || KindOther.String() != "other" {
		t.Error("kind names wrong")
	}
	if PolicyRefresh.String() != "refresh" || PolicyDrop.String() != "drop" {
		t.Error("policy names wrong")
	}
}

func TestChooseClass(t *testing.T) {
	m := newMRM(t, smallConfig())
	c, r := m.ChooseClass(5 * time.Minute)
	if c != 0 || r != 0 {
		t.Errorf("5min → class %d refreshes %d, want 0,0", c, r)
	}
	c, r = m.ChooseClass(3 * time.Hour)
	if c != 2 || r != 0 { // 24h class
		t.Errorf("3h → class %d, want 2", c)
	}
	// Beyond the longest class: refreshes required.
	c, r = m.ChooseClass(30 * 24 * time.Hour)
	if int(c) != len(m.Classes())-1 {
		t.Errorf("30d → class %d, want last", c)
	}
	if r != 4 { // ceil(30/7)-1
		t.Errorf("30d → %d refreshes, want 4", r)
	}
}

func TestPutGetDelete(t *testing.T) {
	m := newMRM(t, smallConfig())
	id, lat, err := m.Put(units.MiB, WriteOptions{Kind: KindKVCache, Lifetime: time.Hour, Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Error("write latency should be positive")
	}
	rlat, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if rlat <= 0 {
		t.Error("read latency should be positive")
	}
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(id); err == nil {
		t.Error("deleted object should not be readable")
	}
	if err := m.Delete(id); err == nil {
		t.Error("double delete should error")
	}
	st := m.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.Deletes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPutZeroSize(t *testing.T) {
	m := newMRM(t, smallConfig())
	if _, _, err := m.Put(0, WriteOptions{}); err == nil {
		t.Error("zero-size put should error")
	}
}

func TestGetUnknown(t *testing.T) {
	m := newMRM(t, smallConfig())
	if _, err := m.Get(99); err == nil {
		t.Error("unknown id should error")
	}
}

func TestObjectSpanningZones(t *testing.T) {
	m := newMRM(t, smallConfig())
	// 40 MiB object across 16 MiB zones → 3 extents.
	id, _, err := m.Put(40*units.MiB, WriteOptions{Kind: KindKVCache, Lifetime: time.Hour, Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(id); err != nil {
		t.Fatal(err)
	}
	obj := m.objects[id]
	if len(obj.extents) < 3 {
		t.Errorf("extents = %d, want >= 3", len(obj.extents))
	}
}

func TestSoftStateExpires(t *testing.T) {
	m := newMRM(t, smallConfig())
	id, _, err := m.Put(units.MiB, WriteOptions{Kind: KindKVCache, Lifetime: 10 * time.Minute, Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(11 * time.Minute); err != nil {
		t.Fatal(err)
	}
	_, err = m.Get(id)
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("expected ErrExpired, got %v", err)
	}
	if m.Stats().Expirations != 1 {
		t.Errorf("expirations = %d", m.Stats().Expirations)
	}
}

func TestRefreshPolicyKeepsDataAlive(t *testing.T) {
	m := newMRM(t, smallConfig())
	id, _, err := m.Put(units.MiB, WriteOptions{Kind: KindWeights, Lifetime: 90 * 24 * time.Hour, Policy: PolicyRefresh})
	if err != nil {
		t.Fatal(err)
	}
	// Step past several retention periods of the longest class (7d).
	for i := 0; i < 30; i++ {
		if err := m.Tick(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Get(id); err != nil {
		t.Fatalf("refreshed object should stay readable: %v", err)
	}
	st := m.Stats()
	if st.Refreshes < 3 {
		t.Errorf("refreshes = %d, want >= 3 over 30 days with 7d class", st.Refreshes)
	}
	if m.Energy().RefreshWrite <= 0 {
		t.Error("refresh writes must cost energy")
	}
	if st.BytesRefreshed < 3*units.MiB {
		t.Errorf("bytes refreshed = %v", st.BytesRefreshed)
	}
}

func TestExpiredZonesAreReclaimed(t *testing.T) {
	m := newMRM(t, smallConfig())
	var ids []ObjectID
	for i := 0; i < 8; i++ {
		id, _, err := m.Put(16*units.MiB, WriteOptions{Kind: KindKVCache, Lifetime: 10 * time.Minute, Policy: PolicyDrop})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	free0 := m.FreeBytes()
	if err := m.Tick(time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.FreeBytes() <= free0 {
		t.Errorf("expired zones should be reclaimed: free %v -> %v", free0, m.FreeBytes())
	}
	if m.Stats().ZoneResets == 0 {
		t.Error("zone resets expected")
	}
	_ = ids
}

func TestDCMWriteCostOrdering(t *testing.T) {
	m := newMRM(t, smallConfig())
	classes := m.Classes()
	var prevE units.Energy
	var prevL time.Duration
	for c := range classes {
		e, l, err := m.WriteCost(Class(c))
		if err != nil {
			t.Fatal(err)
		}
		if c > 0 && (e < prevE || l < prevL) {
			t.Errorf("class %d (%v) should cost at least as much as class %d", c, classes[c], c-1)
		}
		prevE, prevL = e, l
	}
	if _, _, err := m.WriteCost(Class(99)); err == nil {
		t.Error("bad class should error")
	}
}

func TestShortLifetimeWritesCheaper(t *testing.T) {
	// Energy of storing 10-minute data must beat storing it at the 7-day
	// class — the DCM saving.
	cfg := smallConfig()
	m := newMRM(t, cfg)
	id1, _, err := m.Put(units.MiB, WriteOptions{Kind: KindKVCache, Lifetime: 5 * time.Minute, Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.Energy().HostWrite
	m2 := newMRM(t, cfg)
	id2, _, err := m2.Put(units.MiB, WriteOptions{Kind: KindKVCache, Lifetime: 6 * 24 * time.Hour, Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	e2 := m2.Energy().HostWrite
	if e1 >= e2 {
		t.Errorf("short-lifetime write %v should beat long-lifetime %v", e1, e2)
	}
	_, _ = id1, id2
}

func TestNoSpace(t *testing.T) {
	cfg := smallConfig()
	cfg.Capacity = 64 * units.MiB
	cfg.ZoneSize = 16 * units.MiB
	m := newMRM(t, cfg)
	if _, _, err := m.Put(128*units.MiB, WriteOptions{Lifetime: time.Hour}); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
}

func TestScrubAccounting(t *testing.T) {
	cfg := smallConfig()
	// A weak code forces scrubbing within the longest class period.
	cfg.Code = ecc.HammingSpec()
	cfg.UBERTarget = 1e-15 // achievable for SECDED at the fresh-cell floor
	m := newMRM(t, cfg)
	if _, _, err := m.Put(64*units.MiB, WriteOptions{Kind: KindWeights, Lifetime: 6 * 24 * time.Hour, Policy: PolicyRefresh}); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.Energy().ScrubRead <= 0 {
		t.Error("scrub energy expected with SECDED-only protection")
	}
}

func TestStrongCodeAvoidsScrub(t *testing.T) {
	m := newMRM(t, smallConfig()) // RS(255,223)
	for c := range m.Classes() {
		plan, err := m.ScrubPlan(Class(c))
		if err != nil {
			t.Fatal(err)
		}
		// With a 16-symbol-correcting code, data within its retention target
		// needs no scrub (BER stays below the code budget by design).
		if plan.Interval != 0 {
			t.Errorf("class %d: unexpected scrub interval %v", c, plan.Interval)
		}
	}
	if _, err := m.ScrubPlan(Class(-1)); err == nil {
		t.Error("bad class should error")
	}
}

func TestWearLevelingSpreadsResets(t *testing.T) {
	cfg := smallConfig()
	cfg.Capacity = 256 * units.MiB // 16 zones
	m := newMRM(t, cfg)
	// Churn: write and expire many short-lived objects.
	for round := 0; round < 40; round++ {
		for i := 0; i < 4; i++ {
			if _, _, err := m.Put(16*units.MiB, WriteOptions{Kind: KindKVCache, Lifetime: 10 * time.Minute, Policy: PolicyDrop}); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if err := m.Tick(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	maxR, meanR := m.ZoneWearSpread()
	if meanR <= 0 {
		t.Fatal("expected churn to reset zones")
	}
	if float64(maxR) > meanR*2.5 {
		t.Errorf("wear spread too wide: max %d mean %v", maxR, meanR)
	}
}

func TestEnergyAccountTotal(t *testing.T) {
	e := EnergyAccount{HostWrite: 1, RefreshWrite: 2, Read: 3, ScrubRead: 4, Static: 5}
	if e.Total() != 15 {
		t.Fatalf("Total = %v", e.Total())
	}
}

func TestStaticEnergyAccrues(t *testing.T) {
	m := newMRM(t, smallConfig())
	if err := m.Tick(time.Minute); err != nil {
		t.Fatal(err)
	}
	if m.Energy().Static <= 0 {
		t.Error("static energy should accrue with time")
	}
}

func TestOperatingPointRange(t *testing.T) {
	m := newMRM(t, smallConfig())
	if _, err := m.OperatingPoint(Class(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OperatingPoint(Class(len(m.Classes()))); err == nil {
		t.Error("out-of-range class should error")
	}
}

// Property: after any interleaving of puts, deletes, and ticks, live objects
// within their lifetime remain readable, and byte accounting never goes
// negative.
func TestControlPlaneProperty(t *testing.T) {
	type step struct {
		Op      uint8
		SizeKiB uint8
	}
	cfg := smallConfig()
	cfg.Capacity = 512 * units.MiB
	f := func(steps []step) bool {
		m, err := New(cfg)
		if err != nil {
			return false
		}
		live := map[ObjectID]bool{}
		for _, s := range steps {
			switch s.Op % 3 {
			case 0:
				size := units.Bytes(s.SizeKiB%64+1) * units.KiB
				id, _, err := m.Put(size, WriteOptions{Kind: KindKVCache, Lifetime: 24 * time.Hour, Policy: PolicyDrop})
				if err != nil {
					return false
				}
				live[id] = true
			case 1:
				for id := range live {
					if err := m.Delete(id); err != nil {
						return false
					}
					delete(live, id)
					break
				}
			case 2:
				// Small tick, far below the 24h class.
				if err := m.Tick(time.Minute); err != nil {
					return false
				}
			}
		}
		for id := range live {
			if _, err := m.Get(id); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeBytesAccounting(t *testing.T) {
	m := newMRM(t, smallConfig())
	total := m.FreeBytes()
	if total != m.Capacity() {
		t.Fatalf("fresh device free %v != capacity %v", total, m.Capacity())
	}
	_, _, err := m.Put(8*units.MiB, WriteOptions{Lifetime: time.Hour, Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	if m.FreeBytes() != total-8*units.MiB {
		t.Fatalf("free after 8MiB put = %v", m.FreeBytes())
	}
}

func TestMRMUsesConfiguredTechnology(t *testing.T) {
	cfg := smallConfig()
	cfg.Tech = cellphys.STTMRAM
	cfg.Classes = []time.Duration{time.Hour, 24 * time.Hour}
	m := newMRM(t, cfg)
	if m.Spec().Tech != cellphys.STTMRAM {
		t.Errorf("spec tech = %v", m.Spec().Tech)
	}
}

func TestCompactReclaimsStrandedSpace(t *testing.T) {
	cfg := smallConfig()
	cfg.Capacity = 256 * units.MiB
	cfg.ZoneSize = 16 * units.MiB
	m := newMRM(t, cfg)
	// Fill a zone with 8 small objects, then delete 7: the zone is full but
	// only 1/8 live. Note: same class, so they pack into shared zones.
	var ids []ObjectID
	for i := 0; i < 8; i++ {
		id, _, err := m.Put(2*units.MiB, WriteOptions{
			Kind: KindKVCache, Lifetime: 20 * time.Hour, Policy: PolicyDrop,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The 16 MiB of objects exactly filled one zone.
	for _, id := range ids[:7] {
		if err := m.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	free0 := m.FreeBytes()
	n, err := m.Compact(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reclaimed %d zones, want 1", n)
	}
	if m.FreeBytes() <= free0 {
		t.Fatalf("free space did not grow: %v -> %v", free0, m.FreeBytes())
	}
	// The survivor stays readable after relocation.
	if _, err := m.Get(ids[7]); err != nil {
		t.Fatalf("survivor unreadable after compaction: %v", err)
	}
	if m.Stats().Compactions != 1 {
		t.Fatalf("Compactions = %d", m.Stats().Compactions)
	}
	// The survivor's deadline advanced (fresh zone): it should survive
	// nearly a full class period from now.
	if err := m.Tick(20 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(ids[7]); err != nil {
		t.Fatalf("relocated object expired prematurely: %v", err)
	}
}

func TestCompactLeavesDenseZonesAlone(t *testing.T) {
	cfg := smallConfig()
	cfg.Capacity = 256 * units.MiB
	cfg.ZoneSize = 16 * units.MiB
	m := newMRM(t, cfg)
	var ids []ObjectID
	for i := 0; i < 8; i++ {
		id, _, err := m.Put(2*units.MiB, WriteOptions{
			Kind: KindKVCache, Lifetime: 20 * time.Hour, Policy: PolicyDrop,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Delete only one object: 7/8 live, above a 0.5 threshold.
	if err := m.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	n, err := m.Compact(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("dense zone compacted (%d)", n)
	}
}

func TestCompactValidation(t *testing.T) {
	m := newMRM(t, smallConfig())
	if _, err := m.Compact(0); err == nil {
		t.Error("threshold 0 should error")
	}
	if _, err := m.Compact(1); err == nil {
		t.Error("threshold 1 should error")
	}
	// Empty device: nothing to do.
	if n, err := m.Compact(0.5); err != nil || n != 0 {
		t.Errorf("empty compact = %d, %v", n, err)
	}
}

// Property: the control plane's invariants hold through random interleavings
// of puts, gets, deletes, compactions, and ticks.
func TestInvariantsUnderChurn(t *testing.T) {
	type step struct {
		Op      uint8
		SizeMiB uint8
	}
	cfg := smallConfig()
	cfg.Capacity = 512 * units.MiB
	f := func(steps []step) bool {
		m, err := New(cfg)
		if err != nil {
			return false
		}
		var live []ObjectID
		for _, s := range steps {
			switch s.Op % 5 {
			case 0:
				size := units.Bytes(s.SizeMiB%24+1) * units.MiB
				life := time.Duration(s.SizeMiB%3+1) * time.Hour
				id, _, err := m.Put(size, WriteOptions{
					Kind: KindKVCache, Lifetime: life, Policy: PolicyDrop,
				})
				if err != nil {
					if errors.Is(err, ErrNoSpace) {
						continue
					}
					t.Logf("put failed: %v", err)
					return false
				}
				live = append(live, id)
			case 1:
				if len(live) > 0 {
					if err := m.Delete(live[len(live)-1]); err != nil {
						t.Logf("delete failed: %v", err)
						return false
					}
					live = live[:len(live)-1]
				}
			case 2:
				if len(live) > 0 {
					if _, err := m.Get(live[0]); err != nil && !errors.Is(err, ErrExpired) {
						t.Logf("get failed: %v", err)
						return false
					}
				}
			case 3:
				if err := m.Tick(time.Duration(s.SizeMiB%90) * time.Minute); err != nil {
					t.Logf("tick failed: %v", err)
					return false
				}
				// Drop our references to anything that expired.
				kept := live[:0]
				for _, id := range live {
					if _, err := m.Get(id); !errors.Is(err, ErrExpired) {
						kept = append(kept, id)
					}
				}
				live = kept
			case 4:
				if _, err := m.Compact(0.5); err != nil {
					t.Logf("compact failed: %v", err)
					return false
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineHeapStaysExactUnderChurn drives a serving node through 50,000
// batches of eight KV pages, each batch deleted one batch later, with a
// 15-second Tick after each: 8.7 days, in which the node's own 64 pages
// expire and its weights are refreshed once. The deadline heap must hold
// exactly the live objects after every batch, and its capacity must stay
// bounded by them, not grow with the 400,000 pages ever written.
func TestDeadlineHeapStaysExactUnderChurn(t *testing.T) {
	m := newServingMRM(t)
	sizes := make([]units.Bytes, 8)
	for i := range sizes {
		sizes[i] = 8 * units.MiB
	}
	ids := make([]ObjectID, len(sizes))
	lats := make([]time.Duration, len(sizes))
	var prev []ObjectID
	peak := 0
	for i := 0; i < 50000; i++ {
		n, err := m.PutBatch(sizes, kvOpts, ids, lats)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for _, id := range prev {
			if err := m.Delete(id); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		prev = append(prev[:0], ids[:n]...)
		if err := m.Tick(15 * time.Second); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		live := 0
		for _, obj := range m.objects {
			if obj.state == objLive {
				live++
			}
		}
		if len(m.heap) != live {
			t.Fatalf("batch %d: deadline heap holds %d entries for %d live objects", i, len(m.heap), live)
		}
		peak = max(peak, live)
		if i%5000 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
	}
	if s := m.Stats(); s.Expirations != 64 || s.Refreshes != 1 {
		t.Fatalf("churn saw %d expirations and %d refreshes, want 64 and 1", s.Expirations, s.Refreshes)
	}
	if c := cap(m.heap); c > 2*peak {
		t.Fatalf("deadline heap capacity %d for at most %d live objects", c, peak)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
