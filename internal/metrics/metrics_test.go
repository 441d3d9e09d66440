package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	g.Add(-1.5)
	if g.Value() != 2.0 {
		t.Fatalf("Value = %v, want 2.0", g.Value())
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 4000 {
		t.Fatalf("Value = %v, want 4000", g.Value())
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if math.Abs(w.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v, want %v", w.Var(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Stddev() != 0 {
		t.Fatal("empty Welford should report zeros")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(1e-6, 1.01)
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct {
		q, want float64
	}{{0.5, 5000}, {0.9, 9000}, {0.99, 9900}} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want)/tc.want > 0.03 {
			t.Errorf("Quantile(%v) = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	if h.Max() != 10000 {
		t.Errorf("Max = %v", h.Max())
	}
	if math.Abs(h.Mean()-5000.5) > 1e-6 {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestHistogramZeroBucket(t *testing.T) {
	h := NewHistogram(1.0, 1.5)
	h.Observe(0)
	h.Observe(0.5)
	h.Observe(10)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("Quantile(0.5) = %v, want 0 (two of three samples below base)", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1, 2)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramPanics(t *testing.T) {
	h := NewHistogram(1, 2)
	mustPanic(t, func() { h.Observe(-1) })
	mustPanic(t, func() { h.Observe(math.NaN()) })
	mustPanic(t, func() { h.Observe(math.Inf(1)) })
	mustPanic(t, func() { h.Quantile(1.5) })
	mustPanic(t, func() { NewHistogram(0, 2) })
	mustPanic(t, func() { NewHistogram(1, 1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram(1e-3, 1.05)
	for i := 0; i < 100; i++ {
		h.Observe(1.0)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Errorf("Count = %d", s.Count)
	}
	if math.Abs(s.P50-1.0) > 0.1 {
		t.Errorf("P50 = %v, want ~1", s.P50)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads").Add(3)
	r.Gauge("occupancy").Set(0.7)
	r.Histogram("latency").Observe(0.001)
	// Same name returns same instance.
	if r.Counter("reads").Value() != 3 {
		t.Fatal("counter identity broken")
	}
	var lines []string
	r.Each(func(name, value string) { lines = append(lines, name+"="+value) })
	if len(lines) != 3 {
		t.Fatalf("Each visited %d metrics, want 3", len(lines))
	}
	joined := strings.Join(lines, ";")
	for _, want := range []string{"reads=3", "occupancy=0.7", "latency="} {
		if !strings.Contains(joined, want) {
			t.Errorf("output %q missing %q", joined, want)
		}
	}
}

// Property: Welford mean is always within [min, max] of its samples.
func TestWelfordMeanBounds(t *testing.T) {
	f := func(samples []float64) bool {
		var w Welford
		any := false
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e300 {
				// Near-overflow magnitudes make the running mean lose all
				// precision; exclude them as out of the simulator's domain.
				continue
			}
			w.Observe(s)
			any = true
		}
		if !any {
			return true
		}
		return w.Mean() >= w.Min()-1e-9 && w.Mean() <= w.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram quantiles are monotone in q.
func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(1e-6, 1.1)
	for i := 1; i < 1000; i++ {
		h.Observe(float64(i * i % 977))
	}
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

// Merging sharded histograms must be exact: a merged histogram answers every
// query identically to one that observed all samples directly.
func TestHistogramMergeMatchesDirectObservation(t *testing.T) {
	direct := NewHistogram(1e-6, 1.05)
	shards := []*Histogram{
		NewHistogram(1e-6, 1.05),
		NewHistogram(1e-6, 1.05),
		NewHistogram(1e-6, 1.05),
	}
	for i := 0; i < 3000; i++ {
		x := float64(i%997) * 1e-3
		direct.Observe(x)
		shards[i%len(shards)].Observe(x)
	}
	merged := NewHistogram(1e-6, 1.05)
	for _, s := range shards {
		merged.Merge(s)
	}
	if merged.Count() != direct.Count() {
		t.Fatalf("count %d != %d", merged.Count(), direct.Count())
	}
	if merged.Mean() != direct.Mean() {
		t.Fatalf("mean %v != %v", merged.Mean(), direct.Mean())
	}
	if merged.Max() != direct.Max() {
		t.Fatalf("max %v != %v", merged.Max(), direct.Max())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		if m, d := merged.Quantile(q), direct.Quantile(q); m != d {
			t.Fatalf("q=%v: %v != %v", q, m, d)
		}
	}
	// The donors are unchanged.
	var donorCount int64
	for _, s := range shards {
		donorCount += s.Count()
	}
	if donorCount != direct.Count() {
		t.Fatalf("donor histograms mutated: %d", donorCount)
	}
}

func TestHistogramMergeEmptyAndNil(t *testing.T) {
	h := NewHistogram(1e-6, 1.05)
	h.Observe(1)
	h.Merge(nil)
	h.Merge(NewHistogram(1e-6, 1.05))
	if h.Count() != 1 || h.Mean() != 1 {
		t.Fatalf("merge of empty/nil changed state: %+v", h.Snapshot())
	}
}

func TestHistogramMergePanics(t *testing.T) {
	h := NewHistogram(1e-6, 1.05)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("mismatched params", func() { h.Merge(NewHistogram(1e-3, 1.05)) })
	mustPanic("self merge", func() { h.Merge(h) })
}

// Welford.Merge must agree with direct observation to floating-point
// accuracy (Chan et al.'s parallel combination).
func TestWelfordMerge(t *testing.T) {
	var direct, a, b Welford
	for i := 0; i < 500; i++ {
		x := math.Sin(float64(i)) * 10
		direct.Observe(x)
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
	}
	a.Merge(b)
	if a.Count() != direct.Count() {
		t.Fatalf("count %d != %d", a.Count(), direct.Count())
	}
	if math.Abs(a.Mean()-direct.Mean()) > 1e-12 {
		t.Fatalf("mean %v != %v", a.Mean(), direct.Mean())
	}
	if math.Abs(a.Var()-direct.Var()) > 1e-9 {
		t.Fatalf("var %v != %v", a.Var(), direct.Var())
	}
	if a.Min() != direct.Min() || a.Max() != direct.Max() {
		t.Fatalf("min/max %v/%v != %v/%v", a.Min(), a.Max(), direct.Min(), direct.Max())
	}
	// Merging into an empty accumulator copies; merging an empty one is a
	// no-op.
	var empty Welford
	empty.Merge(a)
	if empty.Count() != a.Count() || empty.Mean() != a.Mean() {
		t.Fatal("merge into empty should copy")
	}
	before := a
	a.Merge(Welford{})
	if a != before {
		t.Fatal("merging an empty accumulator should be a no-op")
	}
}

// The one-entry bucket cache in Observe is an optimization only: samples fed
// in a cache-friendly (clustered) order must produce exactly the same buckets
// and quantiles as the same samples in a cache-hostile (shuffled) order, and
// as a per-sample comparison against fresh histograms that never hit the
// cache. Boundary samples sit exactly on bucket edges (base*growth^k), the
// worst case for the guard band.
func TestHistogramObserveCacheExact(t *testing.T) {
	const base, growth = 1e-6, 1.05
	var samples []float64
	// Clustered runs, as latency samples arrive in practice.
	for c := 0; c < 50; c++ {
		center := 1e-5 * math.Pow(1.7, float64(c%13))
		for i := 0; i < 40; i++ {
			samples = append(samples, center*(1+1e-4*float64(i)))
		}
	}
	// Exact bucket boundaries and their immediate neighborhoods.
	for k := -2; k < 40; k++ {
		edge := base * math.Pow(growth, float64(k))
		samples = append(samples, edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)))
	}

	clustered := NewHistogram(base, growth)
	for _, x := range samples {
		// A fresh histogram per sample can never hit the cache: its bucket
		// choice is the exact log-formula answer.
		fresh := NewHistogram(base, growth)
		fresh.Observe(x)
		clustered.Observe(x)
		for i, c := range fresh.buckets {
			if c == 0 {
				continue // buckets below the sample's are allocated, not observed
			}
			if c != 1 {
				t.Fatalf("fresh histogram bucket %d count %d", i, c)
			}
			if clustered.buckets[i] == 0 {
				t.Fatalf("sample %g: cached path chose a different bucket than exact path (%d)", x, i)
			}
		}
	}

	shuffled := NewHistogram(base, growth)
	perm := make([]float64, len(samples))
	copy(perm, samples)
	for i := len(perm) - 1; i > 0; i-- {
		j := (i * 7919) % (i + 1) // deterministic shuffle
		perm[i], perm[j] = perm[j], perm[i]
	}
	for _, x := range perm {
		shuffled.Observe(x)
	}
	if len(clustered.buckets) != len(shuffled.buckets) {
		t.Fatalf("bucket sets differ: %d vs %d", len(clustered.buckets), len(shuffled.buckets))
	}
	for i, c := range clustered.buckets {
		if shuffled.buckets[i] != c {
			t.Fatalf("bucket %d: clustered %d != shuffled %d", i, c, shuffled.buckets[i])
		}
	}
	cs, ss := clustered.Snapshot(), shuffled.Snapshot()
	if cs != ss {
		t.Fatalf("snapshots diverged: %+v != %+v", cs, ss)
	}
}

// BenchmarkHistogramObserve measures the clustered-sample case the bucket
// cache targets: long runs of near-identical latencies.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(1e-9, 1.05)
	samples := make([]float64, 1024)
	for i := range samples {
		// Three clusters, long runs within each.
		center := 1e-4 * math.Pow(10, float64((i/341)%3))
		samples[i] = center * (1 + 1e-5*float64(i%341))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(samples[i%len(samples)])
	}
}
