package controller

import (
	"math"
	"slices"
	"testing"
	"time"

	"mrm/internal/cellphys"
	"mrm/internal/memdev"
	"mrm/internal/units"
)

// scanDue is the linear scan ExpireDue made before Zoned kept a deadline
// index; it stays as the oracle that index is checked against. The free-byte
// and least-worn-empty answers are recounted by Zoned.CheckInvariants.

// scanDue returns, in ascending order, the zones ExpireDue must expire now,
// without marking them.
func scanDue(z *Zoned) []int {
	now := z.dev.Now()
	var due []int
	for i := range z.zones {
		zn := &z.zones[i]
		if (zn.State == ZoneOpen || zn.State == ZoneFull) && zn.WritePtr > 0 &&
			zn.Retention > 0 && now-zn.WrittenAt >= zn.Retention {
			due = append(due, i)
		}
	}
	return due
}

const fuzzZones = 8

// newFuzzZoned builds a small controller (eight 1 MiB zones) whose device
// fails one write in five, so Append and AppendVec take their fault paths.
func newFuzzZoned(t *testing.T, seed byte) *Zoned {
	t.Helper()
	spec := memdev.HBM3E
	spec.Capacity = fuzzZones * units.MiB
	dev, err := memdev.NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	z, err := NewZoned(dev, units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetFaults(memdev.FaultConfig{Seed: uint64(seed), WriteFaultRate: 0.2})
	return z
}

// FuzzZoned drives a fault-armed Zoned through an op sequence decoded from
// the input and, after every op, checks FreeBytes, LeastWornEmpty and the
// index invariants against full scans; every ExpireDue must return exactly
// the ids the scan finds due. The first byte seeds the write faults; each op
// is then three bytes (op, a, b), and AppendVec reads two more bytes
// (zone, size) per request. Op errors are expected — the sequences are
// random — and only the bookkeeping is checked.
func FuzzZoned(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		z := newFuzzZoned(t, data[0])
		data = data[1:]
		zone := func(a byte) int { return int(a)%(fuzzZones+2) - 1 } // -1 and fuzzZones are out of range
		size := func(b byte) units.Bytes { return units.Bytes(b) * 8 * units.KiB }
		retention := func(b byte) time.Duration {
			if b == math.MaxUint8 {
				return math.MaxInt64 // deadline overflows: never due
			}
			return time.Duration(b) * time.Minute
		}
		var reqs []AppendReq
		var results []memdev.Result
		for step := 0; len(data) >= 3; step++ {
			op, a, b := data[0]%8, data[1], data[2]
			data = data[3:]
			switch op {
			case 0:
				_ = z.Open(zone(a), retention(b))
			case 1:
				_, _ = z.Append(zone(a), size(b))
			case 2:
				reqs = reqs[:0]
				for n := 1 + int(a)%4; n > 0 && len(data) >= 2; n-- {
					reqs = append(reqs, AppendReq{Zone: zone(data[0]), Size: size(data[1])})
					data = data[2:]
				}
				results = slices.Grow(results[:0], len(reqs))[:len(reqs)]
				_, _ = z.AppendVec(reqs, results)
			case 3:
				_ = z.CancelOpen(zone(a))
			case 4:
				_ = z.Reset(zone(a))
			case 5:
				if err := z.Device().Advance(time.Duration(b) * time.Minute); err != nil {
					t.Fatal(err)
				}
			case 6:
				want := scanDue(z)
				if got := z.ExpireDue(); !slices.Equal(got, want) {
					t.Fatalf("step %d: ExpireDue %v, scan %v", step, got, want)
				}
				for _, id := range want {
					if z.zones[id].State != ZoneExpired {
						t.Fatalf("step %d: zone %d returned by ExpireDue is %v", step, id, z.zones[id].State)
					}
				}
			case 7:
				if id := z.LeastWornEmpty(); id >= 0 {
					_ = z.Open(id, retention(b))
				}
			}
			if err := z.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// BenchmarkZonedExpireDue measures the per-tick expiry check at the
// HBMPlusMRM shape (384 GiB of 64 MiB zones, 6,144 zones) with half the
// zones holding data in the four default retention classes and none due:
// the call every core.MRM.Tick makes.
func BenchmarkZonedExpireDue(b *testing.B) {
	classes := []time.Duration{10 * time.Minute, time.Hour, 24 * time.Hour, 7 * 24 * time.Hour}
	spec := memdev.MRMSpec(cellphys.RRAM, classes[len(classes)-1])
	spec.Capacity = 384 * units.GiB
	spec.BlockSize = 64 * units.MiB
	dev, err := memdev.NewDevice(spec)
	if err != nil {
		b.Fatal(err)
	}
	z, err := NewZoned(dev, 64*units.MiB)
	if err != nil {
		b.Fatal(err)
	}
	for id := 0; id < z.NumZones(); id += 2 {
		if err := z.Open(id, classes[id/2%len(classes)]); err != nil {
			b.Fatal(err)
		}
		if _, err := z.Append(id, units.MiB); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := z.ExpireDue(); len(got) != 0 {
			b.Fatalf("expired %v", got)
		}
	}
}
