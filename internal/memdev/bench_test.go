package memdev

import (
	"testing"
	"time"

	"mrm/internal/ecc"
	"mrm/internal/units"
)

// weightDevice builds a device sized like an accelerator's weight store:
// 192 GiB of HBM-class memory tracked at 2 MiB wear blocks (~98k blocks), a
// weight-sized object written across most of it, and an hour of age so the
// retention-decay term of the BER model is live. An ECC budget no read
// reaches is armed, so every read runs the worst-BER scan.
func weightDevice(b *testing.B) (*Device, units.Bytes) {
	b.Helper()
	spec := HBM3E
	spec.Capacity = 192 * units.GiB
	d, err := NewDevice(spec)
	if err != nil {
		b.Fatal(err)
	}
	size := 140 * units.GiB
	if _, err := d.WriteAt(0, size); err != nil {
		b.Fatal(err)
	}
	if err := d.Advance(time.Hour); err != nil {
		b.Fatal(err)
	}
	d.SetFaults(FaultConfig{Code: ecc.RSSpec(255, 223), UBERTarget: 1e-12})
	// The first scan allocates the BER term caches; take it here so B/op is
	// the steady state.
	if _, err := d.ReadAt(0, size); err != nil {
		b.Fatal(err)
	}
	return d, size
}

// BenchmarkNewDevice measures building an accelerator-sized (192 GiB) HBM
// device that is never written: its B/op is the per-device heap a fleet pays
// before any access.
func BenchmarkNewDevice(b *testing.B) {
	spec := HBM3E
	spec.Capacity = 192 * units.GiB
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewDevice(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceReadWeights is the simulator's dominant access: one read
// spanning a weight-sized range (70k wear blocks), issued once per decode
// step. Its cost is the per-block worst-BER scan.
func BenchmarkDeviceReadWeights(b *testing.B) {
	d, size := weightDevice(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ReadAt(0, size); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(size))
}

// BenchmarkDeviceReadPages is the KV access pattern: many small contiguous
// page reads (each well under one wear block), issued call by call.
func BenchmarkDeviceReadPages(b *testing.B) {
	d, _ := weightDevice(b)
	const pages = 1024
	pageBytes := 832 * units.KiB // Llama2-70B KV page at 16 tokens/page
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := units.Bytes(0); p < pages; p++ {
			if _, err := d.ReadAt(p*pageBytes, pageBytes); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(pages * pageBytes))
}

// BenchmarkDeviceReadSpans issues the same 1024 page reads as
// BenchmarkDeviceReadPages as one batched call: identical accounting per
// span, one lock acquisition total.
func BenchmarkDeviceReadSpans(b *testing.B) {
	d, _ := weightDevice(b)
	const pages = 1024
	pageBytes := 832 * units.KiB
	spans := make([]Span, pages)
	for p := range spans {
		spans[p] = Span{Addr: units.Bytes(p) * pageBytes, Size: pageBytes}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.ReadSpans(spans, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(pages * pageBytes))
}

// BenchmarkDeviceWriteLarge measures wear accounting for a weight-sized
// write: every interior block is fully covered, so its wear update should be
// one addition, not an overlap computation.
func BenchmarkDeviceWriteLarge(b *testing.B) {
	spec := HBM3E
	spec.Capacity = 192 * units.GiB
	d, err := NewDevice(spec)
	if err != nil {
		b.Fatal(err)
	}
	size := 140 * units.GiB
	// The first write allocates the touched superblocks' chunks; take it
	// here so B/op is the steady state.
	if _, err := d.WriteAt(1024, size); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.WriteAt(1024, size); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(size))
}

// BenchmarkDeviceReadRuns charges BenchmarkMRMGetRefs's read — 13 GiB of
// weights as 208 zone-sized spans, then 64 KV pages of 8 MiB — into a caller
// account on the quiet path, as ReadRunsQuiet's two runs ("runs") and as the
// 272 spans they stand for through ReadSpans ("spans"). Both charge the
// identical floats.
func BenchmarkDeviceReadRuns(b *testing.B) {
	runs := []SizeRun{{Size: 64 * units.MiB, N: 208}, {Size: 8 * units.MiB, N: 64}}
	var spans []Span
	var end units.Bytes
	for _, r := range runs {
		for i := 0; i < r.N; i++ {
			spans = append(spans, Span{Addr: end, Size: r.Size})
			end += r.Size
		}
	}
	quietDevice := func(b *testing.B) *Device {
		spec := HBM3E
		spec.Capacity = 192 * units.GiB
		d, err := NewDevice(spec)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("runs", func(b *testing.B) {
		d := quietDevice(b)
		var acc units.Energy
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !d.ReadRunsQuiet(runs, end, &acc) {
				b.Fatal("ReadRunsQuiet declined the quiet path")
			}
		}
	})
	b.Run("spans", func(b *testing.B) {
		d := quietDevice(b)
		var acc units.Energy
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.ReadSpans(spans, &acc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
