package memdev

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mrm/internal/cellphys"
	"mrm/internal/ecc"
	"mrm/internal/fault"
	"mrm/internal/units"
)

func newTestDevice(t *testing.T, spec Spec) *Device {
	t.Helper()
	d, err := NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDeviceRejectsBadSpec(t *testing.T) {
	if _, err := NewDevice(Spec{}); err == nil {
		t.Fatal("empty spec should be rejected")
	}
}

func TestReadCost(t *testing.T) {
	d := newTestDevice(t, HBM3E)
	res, err := d.ReadAt(0, units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	// 1 GiB at 1 TB/s ≈ 1.07 ms plus 100 ns latency.
	wantTransfer := HBM3E.ReadBW.Time(units.GiB)
	if res.Latency != HBM3E.ReadLatency+wantTransfer {
		t.Errorf("latency = %v, want %v", res.Latency, HBM3E.ReadLatency+wantTransfer)
	}
	wantE := HBM3E.ReadEnergyPerBit.PerBit(units.GiB)
	if res.Energy != wantE {
		t.Errorf("energy = %v, want %v", res.Energy, wantE)
	}
	st := d.Stats()
	if st.Reads != 1 || st.ReadBytes != units.GiB {
		t.Errorf("stats = %+v", st)
	}
}

func TestAccessBoundsAndZeroSize(t *testing.T) {
	d := newTestDevice(t, EverspinSTT)
	if _, err := d.ReadAt(d.Spec().Capacity-10, 20); err == nil {
		t.Error("out-of-bounds read should error")
	}
	if _, err := d.WriteAt(0, 0); err == nil {
		t.Error("zero-size write should error")
	}
}

func TestWearAccumulates(t *testing.T) {
	d := newTestDevice(t, MRMSpec(cellphys.RRAM, 24*time.Hour))
	blk := d.Spec().BlockSize
	for i := 0; i < 10; i++ {
		if _, err := d.WriteAt(0, blk); err != nil {
			t.Fatal(err)
		}
	}
	w := d.Wear()
	if w.MaxCycles < 9.99 || w.MaxCycles > 10.01 {
		t.Errorf("MaxCycles = %v, want 10", w.MaxCycles)
	}
	if w.LifeUsed <= 0 {
		t.Error("LifeUsed should be positive")
	}
}

func TestFractionalWear(t *testing.T) {
	d := newTestDevice(t, MRMSpec(cellphys.RRAM, 24*time.Hour))
	blk := d.Spec().BlockSize
	// Writing half a block should cost half a cycle.
	if _, err := d.WriteAt(0, blk/2); err != nil {
		t.Fatal(err)
	}
	w := d.Wear()
	if w.MaxCycles < 0.49 || w.MaxCycles > 0.51 {
		t.Errorf("MaxCycles = %v, want 0.5", w.MaxCycles)
	}
}

func TestWearSpansBlocks(t *testing.T) {
	d := newTestDevice(t, MRMSpec(cellphys.RRAM, 24*time.Hour))
	blk := d.Spec().BlockSize
	// A write crossing a block boundary wears both blocks fractionally.
	if _, err := d.WriteAt(blk/2, blk); err != nil {
		t.Fatal(err)
	}
	w := d.Wear()
	if w.MaxCycles > 0.51 {
		t.Errorf("boundary-crossing write should wear each block by 0.5, got max %v", w.MaxCycles)
	}
}

func TestBERGrowsWithAgeOnManagedDevice(t *testing.T) {
	d := newTestDevice(t, MRMSpec(cellphys.RRAM, time.Hour))
	// Reads report RawBER only under an ECC budget; this one (a raw BER near
	// 1.3e-3) is above anything the decay term reaches, so no read fails.
	d.SetFaults(FaultConfig{Code: ecc.RSSpec(255, 223), UBERTarget: 1e-12})
	blk := d.Spec().BlockSize
	if _, err := d.WriteAt(0, blk); err != nil {
		t.Fatal(err)
	}
	fresh, err := d.ReadAt(0, blk)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Advance(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	stale, err := d.ReadAt(0, blk)
	if err != nil {
		t.Fatal(err)
	}
	if stale.RawBER <= fresh.RawBER {
		t.Errorf("BER should grow past retention: fresh %g, stale %g", fresh.RawBER, stale.RawBER)
	}
}

func TestFaultInjectionCertain(t *testing.T) {
	d := newTestDevice(t, HBM3E)
	d.SetFaults(FaultConfig{Seed: 1, TransientRate: 1})
	res, err := d.ReadAt(0, units.KiB)
	if !errors.Is(err, fault.ErrUncorrectable) {
		t.Fatalf("rate-1 injector must fault: err = %v", err)
	}
	// The read's cost is charged even when it faults: the controller did the
	// work before ECC declared defeat.
	if res.Latency <= 0 || res.Energy <= 0 {
		t.Fatalf("faulted read should still report cost: %+v", res)
	}
	st := d.Stats()
	if st.Uncorrectable != 1 || st.TransientFaults != 1 || st.RetentionLapses != 0 {
		t.Fatalf("stats = %+v", st)
	}

	d.SetFaults(FaultConfig{Seed: 1, LapseRate: 1})
	if _, err := d.ReadAt(0, units.KiB); !errors.Is(err, fault.ErrUncorrectable) {
		t.Fatalf("rate-1 lapse must fault: err = %v", err)
	}
	if st := d.Stats(); st.RetentionLapses != 1 {
		t.Fatalf("lapse not counted: %+v", st)
	}
}

func TestFaultInjectionDisabled(t *testing.T) {
	// Never arming faults, arming with zero rates, and re-arming with the
	// zero config all behave identically: no read ever errors.
	for name, arm := range map[string]func(*Device){
		"never-armed": func(*Device) {},
		"zero-rates":  func(d *Device) { d.SetFaults(FaultConfig{Seed: 9}) },
		"disarmed": func(d *Device) {
			d.SetFaults(FaultConfig{Seed: 9, TransientRate: 1, LapseRate: 1})
			d.SetFaults(FaultConfig{})
		},
	} {
		d := newTestDevice(t, HBM3E)
		arm(d)
		for i := 0; i < 100; i++ {
			if _, err := d.ReadAt(0, units.KiB); err != nil {
				t.Fatalf("%s: read %d errored: %v", name, i, err)
			}
		}
		if st := d.Stats(); st.Uncorrectable != 0 {
			t.Fatalf("%s: stats = %+v", name, st)
		}
	}
}

func TestFaultSequenceDeterministic(t *testing.T) {
	// The fault pattern is a pure function of (seed, read index): two devices
	// with the same seed fault on exactly the same reads, regardless of
	// wall-clock or construction order.
	pattern := func(seed uint64) []bool {
		d := newTestDevice(t, HBM3E)
		d.SetFaults(FaultConfig{Seed: seed, TransientRate: 0.3, LapseRate: 0.1})
		hits := make([]bool, 200)
		for i := range hits {
			_, err := d.ReadAt(0, units.KiB)
			hits[i] = err != nil
		}
		return hits
	}
	a, b := pattern(42), pattern(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault sequences")
	}
	if reflect.DeepEqual(a, pattern(43)) {
		t.Fatal("different seeds produced identical fault sequences (suspicious)")
	}
	faults := 0
	for _, h := range a {
		if h {
			faults++
		}
	}
	// ~40% of 200 reads; a loose band catches a broken U01 mapping.
	if faults < 40 || faults > 120 {
		t.Fatalf("fault count %d/200 far from the 40%% target", faults)
	}
}

func TestBERThresholdFaultsOrganically(t *testing.T) {
	// An aggressive UBER target on a managed device: once the data ages past
	// retention, raw BER crosses the ECC budget and the read is
	// uncorrectable — with no injected randomness at all.
	d := newTestDevice(t, MRMSpec(cellphys.RRAM, time.Hour))
	d.SetFaults(FaultConfig{Code: ecc.RSSpec(255, 239), UBERTarget: 1e-18})
	blk := d.Spec().BlockSize
	if _, err := d.WriteAt(0, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(0, blk); err != nil {
		t.Fatalf("fresh read should pass ECC: %v", err)
	}
	if err := d.Advance(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	res, err := d.ReadAt(0, blk)
	if !errors.Is(err, fault.ErrUncorrectable) {
		t.Fatalf("stale read (BER %g) should exceed the ECC budget: err = %v", res.RawBER, err)
	}
	st := d.Stats()
	if st.Uncorrectable != 1 || st.TransientFaults != 0 || st.RetentionLapses != 0 {
		t.Fatalf("organic fault miscounted: %+v", st)
	}
}

func TestAdvanceChargesIdleEnergy(t *testing.T) {
	d := newTestDevice(t, HBM3E)
	if err := d.Advance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	e := d.Energy()
	if e.Static <= 0 || e.Refresh <= 0 {
		t.Errorf("HBM idle must cost static+refresh energy: %+v", e)
	}
	wantStatic := HBM3E.StaticPower.Over(10 * time.Second)
	if e.Static != wantStatic {
		t.Errorf("static = %v, want %v", e.Static, wantStatic)
	}
	if d.Now() != 10*time.Second {
		t.Errorf("Now = %v", d.Now())
	}
	if err := d.Advance(-time.Second); err == nil {
		t.Error("negative advance should error")
	}
}

func TestMRMIdleCheaperThanHBM(t *testing.T) {
	h := newTestDevice(t, HBM3E)
	m := newTestDevice(t, MRMSpec(cellphys.RRAM, 24*time.Hour))
	_ = h.Advance(time.Minute)
	_ = m.Advance(time.Minute)
	if m.Energy().Total() >= h.Energy().Total() {
		t.Errorf("MRM idle energy %v should undercut HBM %v",
			m.Energy().Total(), h.Energy().Total())
	}
	if m.Energy().Refresh != 0 {
		t.Error("MRM refresh energy must be zero")
	}
}

func TestEnergyBreakdownTotal(t *testing.T) {
	e := EnergyBreakdown{Read: 1, Write: 2, Refresh: 3, Static: 4}
	if e.Total() != 10 {
		t.Fatalf("Total = %v", e.Total())
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := newTestDevice(t, HBM3E)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, _ = d.ReadAt(units.Bytes(g)*units.MiB, units.KiB)
				_, _ = d.WriteAt(units.Bytes(g)*units.MiB, units.KiB)
			}
		}(g)
	}
	wg.Wait()
	st := d.Stats()
	if st.Reads != 1600 || st.Writes != 1600 {
		t.Fatalf("stats lost updates: %+v", st)
	}
}

func TestAccessKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("kind names wrong")
	}
}

// Property: total wear (sum over blocks) equals total bytes written divided
// by block size, regardless of the access pattern.
func TestWearConservation(t *testing.T) {
	spec := MRMSpec(cellphys.RRAM, 24*time.Hour)
	f := func(ops []struct {
		Addr uint32
		Size uint16
	}) bool {
		d, err := NewDevice(spec)
		if err != nil {
			return false
		}
		var total units.Bytes
		for _, op := range ops {
			addr := units.Bytes(op.Addr) % spec.Capacity
			size := units.Bytes(op.Size)%spec.BlockSize + 1
			if addr+size > spec.Capacity {
				continue
			}
			if _, err := d.WriteAt(addr, size); err != nil {
				return false
			}
			total += size
		}
		want := float64(total) / float64(spec.BlockSize)
		got := d.Wear().MeanCycles * float64(spec.Capacity/spec.BlockSize)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6*(want+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
