package controller

import (
	"strings"
	"testing"
	"time"

	"mrm/internal/cellphys"
	"mrm/internal/memdev"
	"mrm/internal/units"
)

func newSched(t *testing.T, spec memdev.Spec) *Sched {
	t.Helper()
	s, err := NewSched(DefaultSchedConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchedValidation(t *testing.T) {
	cfg := DefaultSchedConfig(memdev.HBM3E)
	cfg.Channels = 0
	if _, err := NewSched(cfg); err == nil {
		t.Fatal("zero channels should error")
	}
	bad := DefaultSchedConfig(memdev.Spec{})
	if _, err := NewSched(bad); err == nil {
		t.Fatal("invalid spec should error")
	}
}

func TestSchedSingleRequest(t *testing.T) {
	s := newSched(t, memdev.HBM3E)
	c, err := s.Submit(Request{Kind: memdev.Read, Addr: 0, Size: 4 * units.KiB})
	if err != nil {
		t.Fatal(err)
	}
	if c.Start != 0 {
		t.Errorf("start = %v, want 0", c.Start)
	}
	if c.Finish <= memdev.HBM3E.ReadLatency {
		t.Errorf("finish %v should exceed read latency", c.Finish)
	}
	if s.Completed() != 1 {
		t.Errorf("Completed = %d", s.Completed())
	}
}

func TestSchedZeroSizeRejected(t *testing.T) {
	s := newSched(t, memdev.HBM3E)
	if _, err := s.Submit(Request{Kind: memdev.Read}); err == nil {
		t.Fatal("zero size should error")
	}
}

func TestSchedSameBankSerializes(t *testing.T) {
	s := newSched(t, memdev.HBM3E)
	r := Request{Kind: memdev.Read, Addr: 0, Size: units.MiB}
	c1, _ := s.Submit(r)
	c2, _ := s.Submit(r) // same address → same bank
	if c2.Start < c1.Finish {
		t.Errorf("same-bank requests overlapped: c1 ends %v, c2 starts %v", c1.Finish, c2.Start)
	}
}

func TestSchedDifferentChannelsOverlap(t *testing.T) {
	s := newSched(t, memdev.HBM3E)
	c1, _ := s.Submit(Request{Kind: memdev.Read, Addr: 0, Size: units.MiB})
	c2, _ := s.Submit(Request{Kind: memdev.Read, Addr: 256, Size: units.MiB}) // next channel
	if c2.Start >= c1.Finish {
		t.Errorf("different channels should overlap: c1 ends %v, c2 starts %v", c1.Finish, c2.Start)
	}
}

func TestSchedRefreshSteals(t *testing.T) {
	s := newSched(t, memdev.HBM3E)
	r := Request{Kind: memdev.Read, Addr: 0, Size: units.MiB, Arrive: 0}
	c1, _ := s.Submit(r)
	if s.RefreshTime() <= 0 {
		t.Error("refresh should tax bank busy time on DRAM")
	}
	// The tax is proportional: tRFC per tREFI window, ~9% for the default
	// configuration (350ns per 3.9µs slice).
	frac := s.RefreshTime().Seconds() / c1.Finish.Seconds()
	if frac < 0.01 || frac > 0.2 {
		t.Errorf("refresh share = %v, want a high-single-digit percentage", frac)
	}
}

func TestSchedNoRefreshOnMRM(t *testing.T) {
	spec := memdev.MRMSpec(cellphys.RRAM, 24*time.Hour)
	s := newSched(t, spec)
	r := Request{Kind: memdev.Read, Addr: 0, Size: units.KiB}
	_, _ = s.Submit(r)
	r.Arrive = time.Second
	_, _ = s.Submit(r)
	if s.RefreshTime() != 0 {
		t.Error("MRM must not refresh")
	}
}

func TestSchedWriteSlower(t *testing.T) {
	spec := memdev.MRMSpec(cellphys.RRAM, 24*time.Hour)
	s := newSched(t, spec)
	cr, _ := s.Submit(Request{Kind: memdev.Read, Addr: 0, Size: units.MiB})
	s2 := newSched(t, spec)
	cw, _ := s2.Submit(Request{Kind: memdev.Write, Addr: 0, Size: units.MiB})
	if cw.Finish <= cr.Finish {
		t.Errorf("MRM write (%v) should be slower than read (%v)", cw.Finish, cr.Finish)
	}
}

func TestZoneStateString(t *testing.T) {
	for st, want := range map[ZoneState]string{
		ZoneEmpty: "empty", ZoneOpen: "open", ZoneFull: "full", ZoneExpired: "expired",
	} {
		if st.String() != want {
			t.Errorf("%v != %s", st, want)
		}
	}
	if !strings.Contains(ZoneState(9).String(), "9") {
		t.Error("unknown state should include number")
	}
}

func newZoned(t *testing.T) *Zoned {
	t.Helper()
	dev, err := memdev.NewDevice(memdev.MRMSpec(cellphys.RRAM, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	z, err := NewZoned(dev, 64*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestZonedSetup(t *testing.T) {
	z := newZoned(t)
	want := int(z.Device().Spec().Capacity / (64 * units.MiB))
	if z.NumZones() != want {
		t.Fatalf("NumZones = %d, want %d", z.NumZones(), want)
	}
	if _, err := NewZoned(z.Device(), 0); err == nil {
		t.Error("zero zone size should error")
	}
	if _, err := NewZoned(z.Device(), 100*units.TiB); err == nil {
		t.Error("oversized zone should error")
	}
}

func TestZonedLifecycle(t *testing.T) {
	z := newZoned(t)
	if err := z.Open(0, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := z.Open(0, time.Hour); err == nil {
		t.Fatal("double open should error")
	}
	if _, err := appendOne(z, 0, units.MiB); err != nil {
		t.Fatal(err)
	}
	zn, _ := z.Zone(0)
	if zn.State != ZoneOpen || zn.WritePtr != units.MiB {
		t.Fatalf("zone = %+v", zn)
	}
	if _, err := z.Read(0, 0, units.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := z.Read(0, units.MiB/2, units.MiB); err == nil {
		t.Fatal("read past write pointer should error")
	}
	if err := z.Reset(0); err != nil {
		t.Fatal(err)
	}
	zn, _ = z.Zone(0)
	if zn.State != ZoneEmpty || zn.Resets != 1 || zn.WritePtr != 0 {
		t.Fatalf("after reset: %+v", zn)
	}
	if err := z.Reset(0); err == nil {
		t.Fatal("reset of empty zone should error")
	}
}

func TestZonedAppendFills(t *testing.T) {
	z := newZoned(t)
	_ = z.Open(1, time.Hour)
	zn, _ := z.Zone(1)
	if _, err := appendOne(z, 1, zn.Size); err != nil {
		t.Fatal(err)
	}
	zn, _ = z.Zone(1)
	if zn.State != ZoneFull {
		t.Fatalf("state = %v, want full", zn.State)
	}
	if _, err := appendOne(z, 1, 1); err == nil {
		t.Fatal("append to full zone should error")
	}
}

func TestZonedAppendBounds(t *testing.T) {
	z := newZoned(t)
	_ = z.Open(0, time.Hour)
	if _, err := appendOne(z, 0, 0); err == nil {
		t.Fatal("zero append should error")
	}
	if _, err := appendOne(z, 0, 65*units.MiB); err == nil {
		t.Fatal("oversized append should error")
	}
	if _, err := appendOne(z, 5, units.KiB); err == nil {
		t.Fatal("append to unopened zone should error")
	}
	if _, err := appendOne(z, -1, 1); err == nil {
		t.Fatal("negative zone should error")
	}
	if _, err := z.Zone(1 << 20); err == nil {
		t.Fatal("zone id out of range should error")
	}
}

func TestZonedExpiry(t *testing.T) {
	z := newZoned(t)
	_ = z.Open(0, time.Hour)
	_, _ = appendOne(z, 0, units.MiB)
	_ = z.Open(1, 10*time.Hour)
	_, _ = appendOne(z, 1, units.MiB)

	if err := z.Device().Advance(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	expired := z.ExpireDue()
	if len(expired) != 1 || expired[0] != 0 {
		t.Fatalf("expired = %v, want [0]", expired)
	}
	if _, err := z.Read(0, 0, units.KiB); err == nil {
		t.Fatal("read of expired zone should error")
	}
	if _, err := z.Read(1, 0, units.KiB); err != nil {
		t.Fatalf("zone 1 should still be readable: %v", err)
	}
	// Expired zones can be reset and reused.
	if err := z.Reset(0); err != nil {
		t.Fatal(err)
	}
}

func TestZonedWearLeveling(t *testing.T) {
	z := newZoned(t)
	// Wear zone 0 with 3 resets.
	for i := 0; i < 3; i++ {
		_ = z.Open(0, time.Hour)
		_, _ = appendOne(z, 0, units.KiB)
		_ = z.Reset(0)
	}
	if got := z.LeastWornEmpty(); got == 0 {
		t.Fatal("least-worn pick should avoid the worn zone")
	}
	maxR, meanR := z.WearSpread()
	if maxR != 3 {
		t.Fatalf("max resets = %d", maxR)
	}
	if meanR <= 0 || meanR >= 3 {
		t.Fatalf("mean resets = %v", meanR)
	}
}

func TestLeastWornEmptyNoneLeft(t *testing.T) {
	dev, _ := memdev.NewDevice(memdev.MRMSpec(cellphys.RRAM, time.Hour))
	z, err := NewZoned(dev, dev.Spec().Capacity) // a single zone
	if err != nil {
		t.Fatal(err)
	}
	_ = z.Open(0, time.Hour)
	if z.LeastWornEmpty() != -1 {
		t.Fatal("no empty zones should yield -1")
	}
}
