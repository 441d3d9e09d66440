// Package metrics provides the measurement primitives used by the simulator:
// atomic counters, Welford mean/variance accumulators, log-bucketed
// histograms with percentile queries, and a registry that renders snapshots.
// All types are safe for concurrent use unless noted otherwise.
//
// Sharded use: rather than sharing one accumulator across workers, give each
// worker of a parallel sweep its own Histogram/Welford and combine them
// after the barrier with Merge. Merging is exact for Count, Mean, Sum, Max
// and bucket counts — a merged histogram answers quantile queries exactly as
// if every sample had been observed by a single accumulator — so sharding
// changes no reported number, only the synchronization cost.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n may not be negative).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Welford accumulates running mean and variance without storing samples.
// It is not safe for concurrent use; wrap with a mutex or shard per goroutine.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds a sample.
func (w *Welford) Observe(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator's samples into w (Chan et al.'s parallel
// update), as if w had observed every sample o did. o is unchanged.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Count returns the number of samples.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observed sample (0 if empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observed sample (0 if empty).
func (w *Welford) Max() float64 { return w.max }

// Histogram is a log-bucketed histogram of non-negative float samples.
// Bucket i covers [base*growth^i, base*growth^(i+1)). It answers approximate
// percentile queries with relative error bounded by the growth factor.
type Histogram struct {
	mu      sync.Mutex
	base    float64 // immutable after NewHistogram
	logG    float64 // immutable after NewHistogram
	buckets []int64 // count per bucket index, grown on demand; guarded by mu
	zero    int64   // samples below base; guarded by mu
	count   int64   // guarded by mu
	sum     float64 // guarded by mu
	max     float64 // guarded by mu

	// One-entry bucket cache: latency samples cluster, so consecutive
	// observations usually land in the bucket of the previous one. lastLo/
	// lastHi are that bucket's bounds shrunk by a guard band, so any sample
	// the fast path accepts is far enough from a boundary that the exact
	// log-formula index is unambiguous; boundary-adjacent samples miss the
	// cache and take the exact path. Bucketing is bit-identical either way.
	lastValid      bool    // guarded by mu
	lastIdx        int     // guarded by mu
	lastLo, lastHi float64 // guarded by mu
}

// NewHistogram creates a histogram with the given smallest resolvable value
// and per-bucket growth factor (e.g. 1.1 for 10% resolution).
func NewHistogram(base, growth float64) *Histogram {
	if base <= 0 || growth <= 1 {
		panic("metrics: invalid histogram parameters")
	}
	return &Histogram{base: base, logG: math.Log(growth)}
}

// Observe adds a sample; negative, NaN and infinite samples panic.
func (h *Histogram) Observe(x float64) {
	if !(x >= 0) || x > math.MaxFloat64 {
		panic(fmt.Sprintf("metrics: invalid histogram sample %v", x))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += x
	if x > h.max {
		h.max = x
	}
	if x < h.base {
		h.zero++
		return
	}
	if h.lastValid && x >= h.lastLo && x < h.lastHi {
		h.buckets[h.lastIdx]++
		return
	}
	// x >= base makes x/base >= 1, so the index is never negative.
	i := int(math.Floor(math.Log(x/h.base) / h.logG))
	if i >= len(h.buckets) {
		h.buckets = append(h.buckets, make([]int64, i+1-len(h.buckets))...)
	}
	h.buckets[i]++
	// Cache this bucket's bounds for the next sample, pulled inward by a
	// guard band several orders of magnitude wider than the rounding error
	// of exp/log, so the fast-path test never claims a sample the exact
	// formula could assign to a neighboring bucket.
	const guard = 1 + 1e-12
	h.lastValid = true
	h.lastIdx = i
	h.lastLo = h.base * math.Exp(float64(i)*h.logG) * guard
	h.lastHi = h.base * math.Exp(float64(i+1)*h.logG) / guard
}

// Merge folds other's samples into h, exactly as if h had observed every
// sample other did: counts, sums, maxima, and per-bucket tallies all add.
// This is the combine step for per-worker (sharded) histograms after a
// parallel sweep's barrier. Both histograms must share base and growth
// parameters; merging a histogram into itself is a programming error.
// other is left unchanged and may be used concurrently.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if other == h {
		panic("metrics: Histogram.Merge with itself")
	}
	// base and logG are immutable after construction: safe to compare
	// without other's lock.
	if other.base != h.base || other.logG != h.logG {
		panic("metrics: merging histograms with different parameters")
	}
	// Copy other's state out under its own lock, then fold in under h's;
	// never hold both locks at once.
	other.mu.Lock()
	zero, count, sum, max := other.zero, other.count, other.sum, other.max
	buckets := append([]int64(nil), other.buckets...)
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	h.zero += zero
	h.count += count
	h.sum += sum
	if max > h.max {
		h.max = max
	}
	if len(buckets) > len(h.buckets) {
		h.buckets = append(h.buckets, make([]int64, len(buckets)-len(h.buckets))...)
	}
	for i, c := range buckets {
		h.buckets[i] += c
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the exact mean of the observed samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the exact maximum of the observed samples.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns an approximation of the q-th quantile (q in [0,1]).
// It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic("metrics: quantile out of range")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target <= h.zero {
		return 0
	}
	seen := h.zero
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			// Return the geometric midpoint of the bucket.
			lo := h.base * math.Exp(float64(i)*h.logG)
			hi := lo * math.Exp(h.logG)
			return math.Sqrt(lo * hi)
		}
	}
	return h.max
}

// Snapshot captures commonly reported statistics.
type Snapshot struct {
	Count          int64
	Mean, P50      float64
	P90, P99, P999 float64
	Max            float64
}

// Snapshot returns the current statistics.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// Registry is a named collection of metrics for bulk reporting.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter   // guarded by mu
	gauges     map[string]*Gauge     // guarded by mu
	histograms map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram with default
// parameters (base 1e-9, 5% buckets) suitable for latencies in seconds.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(1e-9, 1.05)
		r.histograms[name] = h
	}
	return h
}

// WriteText renders every metric as one flat numeric sample per line in the
// Prometheus text exposition style — counters and gauges as `name value`,
// histograms exploded into `name{q="0.5"}` quantile samples plus `_count`,
// `_mean`, and `_max` — in deterministic (sorted) order, so two snapshots of
// identical state render byte-identically and scrapes diff cleanly.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		emit("%s %d\n", n, r.counters[n].Value())
	}
	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		emit("%s %g\n", n, r.gauges[n].Value())
	}
	names = names[:0]
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.histograms[n].Snapshot()
		emit("%s{q=\"0.5\"} %g\n", n, s.P50)
		emit("%s{q=\"0.9\"} %g\n", n, s.P90)
		emit("%s{q=\"0.99\"} %g\n", n, s.P99)
		emit("%s{q=\"0.999\"} %g\n", n, s.P999)
		emit("%s_count %d\n", n, s.Count)
		emit("%s_mean %g\n", n, s.Mean)
		emit("%s_max %g\n", n, s.Max)
	}
	return err
}

// ServeHTTP exposes the registry as a text /metrics endpoint (WriteText's
// format), making a *Registry mountable directly on an HTTP mux.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := r.WriteText(w); err != nil {
		// The response is already streaming; nothing useful to send.
		return
	}
}

// Each calls fn for every metric in deterministic (sorted) order with a
// one-line rendering of its value.
func (r *Registry) Each(fn func(name, value string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, "c:"+n)
	}
	for n := range r.gauges {
		names = append(names, "g:"+n)
	}
	for n := range r.histograms {
		names = append(names, "h:"+n)
	}
	sort.Strings(names)
	for _, tagged := range names {
		kind, n := tagged[:1], tagged[2:]
		switch kind {
		case "c":
			fn(n, fmt.Sprintf("%d", r.counters[n].Value()))
		case "g":
			fn(n, fmt.Sprintf("%g", r.gauges[n].Value()))
		case "h":
			s := r.histograms[n].Snapshot()
			fn(n, fmt.Sprintf("n=%d mean=%.4g p50=%.4g p99=%.4g max=%.4g",
				s.Count, s.Mean, s.P50, s.P99, s.Max))
		}
	}
}
