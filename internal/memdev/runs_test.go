package memdev

import (
	"math"
	"math/rand"
	"testing"

	"mrm/internal/ecc"
	"mrm/internal/units"
)

// addLoop is addRepeated's definition: n successive float adds.
func addLoop(x, e units.Energy, n int) units.Energy {
	for ; n > 0; n-- {
		x += e
	}
	return x
}

// checkAddRepeated fails the test unless addRepeated(x, e, n) is bitwise the
// plain loop's result.
func checkAddRepeated(t *testing.T, x, e float64, n int) {
	t.Helper()
	got := addRepeated(units.Energy(x), units.Energy(e), n)
	want := addLoop(units.Energy(x), units.Energy(e), n)
	if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		t.Fatalf("addRepeated(%v, %v, %d) = %v (%#x), loop gives %v (%#x)",
			x, e, n, got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
	}
}

func TestAddRepeatedMatchesLoop(t *testing.T) {
	p52 := math.Ldexp(1, 52)
	cases := []struct {
		name string
		x, e float64
		n    int
	}{
		{"x zero", 0, 0.1, 1000},
		{"x below e", 1e-3, 1.0, 5000},
		{"n zero", 1.5, 0.25, 0},
		{"n one", 1.5, 0.1, 1},
		{"exact ulp multiple", 1.0, 0.25, 100000},
		// e is an odd number of half-ulps of x: every add is an exact tie,
		// from an even and from an odd mantissa.
		{"tie from even mantissa", p52, 0.5, 1000},
		{"tie from odd mantissa", p52 + 1, 0.5, 1000},
		{"tie, odd quotient", p52, 1.5, 1000},
		{"tie, odd quotient, odd mantissa", p52 + 1, 1.5, 1000},
		{"just below a power of two", math.Nextafter(2, 0), 3e-16, 1000},
		// From 2^53-3 in steps of 1.75 (δ = 2): the first add ends at 2^53-1
		// inside the binade, the second must round in the next one.
		{"last add in the binade ends one below its top", p52*2 - 3, 1.75, 3},
		{"crosses many binades", 1e-9, 3.3e-7, 1000000},
		{"saturates: e under half an ulp", 1e16, 0.9, 1000000},
		{"e exactly half an ulp", 1e16, 1.0, 1000},
		{"subnormal x and e", 5e-324, 5e-324, 1000000},
		{"subnormal into normal", math.SmallestNonzeroFloat64 * 3, 1e-310, 100000},
		{"smallest normal", 0x1p-1022, 0x1p-1070, 100000},
		{"negative x", -1.0, 0.001, 3000},
		{"negative zero", math.Copysign(0, -1), 0.1, 100},
		{"e zero", 1.0, 0, 100},
		{"e negative", 1.0, -0.001, 100},
		{"overflow to Inf", math.MaxFloat64, math.Ldexp(1, 970), 10},
		{"Inf x", math.Inf(1), 1.0, 10},
		{"NaN x", math.NaN(), 1.0, 10},
		{"large k, KV page energy", 3.7e4, 1.23456789e-3, 1000000},
		{"large k, weights energy", 812.5, 0.0713, 1000000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAddRepeated(t, c.x, c.e, c.n) })
	}
}

// TestAddRepeatedRandom draws (x, e, n) across magnitudes, with e near
// ulp(x) multiples and exact ties planted, against the plain loop.
func TestAddRepeatedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 20000; i++ {
		x := math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		var e float64
		switch i % 5 {
		case 0:
			e = x * math.Ldexp(rng.Float64(), -rng.Intn(60))
		case 1: // an exact number of half-ulps: ties
			ulp := math.Nextafter(x, math.Inf(1)) - x
			e = ulp / 2 * float64(1+2*rng.Intn(8))
		case 2:
			e = math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		case 3: // within an ulp of an ulp multiple
			ulp := math.Nextafter(x, math.Inf(1)) - x
			e = ulp*float64(1+rng.Intn(1<<20)) + float64(rng.Intn(3)-1)*ulp/4
		case 4: // a few ulps below a binade's top, steps of one to three ulps
			top := math.Ldexp(1, rng.Intn(80)-40)
			ulp := top - math.Nextafter(top, 0)
			x = top - ulp*float64(1+rng.Intn(6))
			e = ulp * float64(1+rng.Intn(12)) / 4
		}
		checkAddRepeated(t, x, e, rng.Intn(3000))
	}
}

// FuzzAddRepeated checks addRepeated bitwise against the plain loop for
// arbitrary float bit patterns and counts up to 2^20.
func FuzzAddRepeated(f *testing.F) {
	f.Fuzz(func(t *testing.T, x, e float64, k uint32) {
		checkAddRepeated(t, x, e, int(k%(1<<20)))
	})
}

// runsTestDevice is a written 64 MiB HBM device on the quiet path.
func runsTestDevice(t *testing.T) *Device {
	t.Helper()
	spec := HBM3E
	spec.Capacity = 64 * units.MiB
	d := newTestDevice(t, spec)
	if _, err := d.WriteAt(0, spec.Capacity); err != nil {
		t.Fatal(err)
	}
	return d
}

// expand returns spans with the runs' sizes, laid end to end from 0.
func expand(runs []SizeRun) ([]Span, units.Bytes) {
	var spans []Span
	var end units.Bytes
	for _, r := range runs {
		for i := 0; i < r.N; i++ {
			spans = append(spans, Span{Addr: end, Size: r.Size})
			end += r.Size
		}
	}
	return spans, end
}

// TestReadRunsQuietMatchesSpans pins ReadRunsQuiet against ReadSpans over
// the expanded spans, and both against a ReadAt loop summing each
// read's energy, on triplet devices: stats, device energy and the caller's
// accumulator bitwise equal, across random runs (merged and split runs of
// one size included) and a nil accumulator.
func TestReadRunsQuietMatchesSpans(t *testing.T) {
	runs, spans, loop := runsTestDevice(t), runsTestDevice(t), runsTestDevice(t)
	rng := rand.New(rand.NewSource(3))
	accRuns, accSpans, accLoop := units.Energy(0.5), units.Energy(0.5), units.Energy(0.5)
	sizes := []units.Bytes{4 * units.KiB, 64 * units.KiB, 832 * units.KiB, 1}
	for round := 0; round < 300; round++ {
		rs := make([]SizeRun, 1+rng.Intn(6))
		for i := range rs {
			rs[i] = SizeRun{Size: sizes[rng.Intn(len(sizes))], N: rng.Intn(40)}
		}
		sp, end := expand(rs)
		acc, accS := &accRuns, &accSpans
		if round%5 == 4 {
			acc, accS = nil, nil
		}
		if end > runs.spec.Capacity {
			continue
		}
		if !runs.ReadRunsQuiet(rs, end, acc) {
			t.Fatalf("round %d: ReadRunsQuiet declined quiet runs %v", round, rs)
		}
		if done, _, err := spans.ReadSpans(sp, accS); err != nil || done != len(sp) {
			t.Fatalf("round %d: ReadSpans = (%d, %v)", round, done, err)
		}
		for _, s := range sp {
			res, err := loop.ReadAt(s.Addr, s.Size)
			if err != nil {
				t.Fatal(err)
			}
			if acc != nil {
				accLoop += res.Energy
			}
		}
		if math.Float64bits(float64(accRuns)) != math.Float64bits(float64(accSpans)) || accRuns != accLoop {
			t.Fatalf("round %d: accumulators %v (runs) vs %v (spans) vs %v (loop)", round, accRuns, accSpans, accLoop)
		}
		if a, b, c := runs.Stats(), spans.Stats(), loop.Stats(); a != b || a != c {
			t.Fatalf("round %d: stats %+v (runs) vs %+v (spans) vs %+v (loop)", round, a, b, c)
		}
		if a, b, c := runs.Energy(), spans.Energy(), loop.Energy(); a != b || a != c {
			t.Fatalf("round %d: energy %+v (runs) vs %+v (spans) vs %+v (loop)", round, a, b, c)
		}
	}
}

// TestReadRunsQuietDeclines pins the cases in which ReadRunsQuiet must
// return false and change nothing: an armed injector, an ECC budget, an end
// beyond capacity, and a zero-size run.
func TestReadRunsQuietDeclines(t *testing.T) {
	runs := []SizeRun{{Size: 4 * units.KiB, N: 8}}
	cases := []struct {
		name string
		prep func(d *Device)
		runs []SizeRun
		end  units.Bytes
	}{
		{"transient injector", func(d *Device) { d.SetFaults(FaultConfig{Seed: 1, TransientRate: 0.01}) }, runs, units.MiB},
		{"lapse injector", func(d *Device) { d.SetFaults(FaultConfig{Seed: 1, LapseRate: 0.01}) }, runs, units.MiB},
		{"ECC budget", func(d *Device) { d.SetFaults(FaultConfig{Code: ecc.RSSpec(255, 223), UBERTarget: 1e-18}) }, runs, units.MiB},
		{"end beyond capacity", func(*Device) {}, runs, 64*units.MiB + 1},
		{"zero-size run", func(*Device) {}, []SizeRun{{Size: 4 * units.KiB, N: 1}, {Size: 0, N: 3}}, units.MiB},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := runsTestDevice(t)
			c.prep(d)
			stats, energy := d.Stats(), d.Energy()
			acc := units.Energy(1.25)
			if d.ReadRunsQuiet(c.runs, c.end, &acc) {
				t.Fatal("ReadRunsQuiet charged")
			}
			if d.Stats() != stats || d.Energy() != energy || acc != 1.25 {
				t.Fatalf("declined call changed state: stats %+v, energy %+v, acc %v", d.Stats(), d.Energy(), acc)
			}
		})
	}
}
