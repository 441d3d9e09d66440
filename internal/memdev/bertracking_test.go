package memdev

import (
	"math/rand"
	"testing"
	"time"

	"mrm/internal/ecc"
	"mrm/internal/units"
)

// driveDevice runs a fixed access mix against a device and returns the
// Results of its reads. The schedule is seeded so both twin instances see
// the identical access sequence.
func driveDevice(t *testing.T, d *Device, seed int64) []Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []Result
	for i := 0; i < 400; i++ {
		addr := units.Bytes(rng.Intn(256)) * units.MiB
		size := units.Bytes(1+rng.Intn(16)) * units.MiB
		switch rng.Intn(3) {
		case 0:
			if _, err := d.WriteAt(addr, size); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		case 1:
			res, err := d.ReadAt(addr, size)
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			out = append(out, res)
		default:
			if err := d.Advance(time.Duration(rng.Intn(1000)) * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestBERTrackingOffTwin runs twin devices — one armed with an ECC budget no
// read reaches, one unarmed — through an identical schedule and checks that
// everything except Result.RawBER is bit-identical: latencies, energies,
// counters, wear. The worst-BER scan runs only under a budget, so RawBER must
// be > 0 on the armed twin and 0 on the unarmed one.
func TestBERTrackingOffTwin(t *testing.T) {
	spec := HBM3E
	spec.Capacity = 640 * units.MiB
	on, err := NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	// RS(255,223) absorbs a raw BER near 1.3e-3 at this target, far above
	// what the schedule's wear and age reach.
	on.SetFaults(FaultConfig{Code: ecc.RSSpec(255, 223), UBERTarget: 1e-12})
	resOn := driveDevice(t, on, 99)
	resOff := driveDevice(t, off, 99)
	if len(resOn) != len(resOff) {
		t.Fatalf("twin read counts differ: %d vs %d", len(resOn), len(resOff))
	}
	for i := range resOn {
		if resOn[i].Latency != resOff[i].Latency || resOn[i].Energy != resOff[i].Energy {
			t.Fatalf("read %d cost differs: %+v vs %+v", i, resOn[i], resOff[i])
		}
		if resOff[i].RawBER != 0 {
			t.Fatalf("read %d: RawBER %v reported with no budget armed", i, resOff[i].RawBER)
		}
		if resOn[i].RawBER <= 0 {
			t.Fatalf("read %d: RawBER %v under an armed budget", i, resOn[i].RawBER)
		}
	}
	if on.Energy() != off.Energy() {
		t.Fatalf("energy differs: %+v vs %+v", on.Energy(), off.Energy())
	}
	if on.Stats() != off.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", on.Stats(), off.Stats())
	}
	if on.Wear() != off.Wear() {
		t.Fatalf("wear differs: %+v vs %+v", on.Wear(), off.Wear())
	}
}

// TestBERTrackingOffKeepsECCBudgetCheck pins that an armed ECC budget runs
// the worst-BER scan: organic uncorrectable reads — the wear/age-outruns-the-
// code failure mode — must not be silently disabled.
func TestBERTrackingOffKeepsECCBudgetCheck(t *testing.T) {
	spec := HBM3E
	spec.Capacity = 64 * units.MiB
	spec.Endurance = 100 // tiny, so a few writes push BER over any budget
	d, err := NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaults(FaultConfig{Seed: 1, Code: ecc.RSSpec(255, 223), UBERTarget: 1e-18})
	// Wear one block far past its endurance.
	for i := 0; i < 5000; i++ {
		if _, err := d.WriteAt(0, 2*units.MiB); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	res, err := d.ReadAt(0, 2*units.MiB)
	if err == nil {
		t.Fatal("worn-out read succeeded: ECC budget check lost")
	}
	if res.RawBER == 0 {
		t.Fatal("uncorrectable read reported RawBER 0: budget path must still scan")
	}
}
