package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values; JSON renders it as the result's
// "metrics" object.
type metricSet map[string]metric

// MarshalJSON writes the value with all its digits, and always with a
// fraction or an exponent, so that a whole count still reads as a float.
func (m metric) MarshalJSON() ([]byte, error) {
	v := strconv.FormatFloat(m.Value, 'g', -1, 64)
	if !strings.ContainsAny(v, ".e") {
		v += ".0"
	}
	u, err := json.Marshal(m.Unit)
	if err != nil {
		return nil, err
	}
	return []byte(`{"value":` + v + `,"unit":` + string(u) + `}`), nil
}

func (m metricSet) add(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// interpQuantile returns the q-quantile of xs, interpolated linearly between
// the two nearest ranks. With a few dozen samples, as a fleet-day run has, it
// moves less from run to run than the nearest rank.
func interpQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := q * float64(len(s)-1)
	i := int(p)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (p-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// The host's speed wanders: a fixed compute loop runs up to 1.6 times
// slower for minutes at a time, with no steal time reported and process CPU
// time rising with the wall time. Raw host times of the same code then
// differ between runs by more than any regression bound. So every timed
// section is paired with a fixed calibration kernel that lives here, in
// code the simulator does not contain, and times are reported at reference
// speed: scaled by calRef over the mean kernel time of the run (speed) or of
// the samples around one section (localSpeed). No change to the simulator
// can move the kernel.
const (
	calN = 1 << 15
	// One run of calReps kernels is noisy (about 20%), so a run spends
	// about a tenth of its time in them.
	calReps = 24
	// calRef is the kernel's time at reference speed, about its mean on
	// the machine in README.md.
	calRef = 120 * time.Millisecond
)

var calSink atomic.Uint64

// calBuf is one goroutine's kernel memory, allocated before timing starts
// so that the kernel does not allocate.
type calBuf struct {
	xs []uint64
	m  map[uint64]uint64
}

// kernel is branchy, memory-bound work of a fixed size: hash-map updates,
// a sort and lookups over pseudo-random keys.
func (b *calBuf) kernel(seed uint64) uint64 {
	clear(b.m)
	x := seed | 1
	for i := range b.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b.xs[i] = x
		b.m[x>>52] += x
	}
	slices.Sort(b.xs)
	var h uint64
	for _, v := range b.xs {
		h += b.m[v>>52]
	}
	return h
}

// calibrate runs the kernel calReps times on each of GOMAXPROCS goroutines
// at once, as the simulator's worker pool would, and returns the wall time.
func calibrate() time.Duration {
	bufs := make([]calBuf, runtime.GOMAXPROCS(0))
	for i := range bufs {
		bufs[i] = calBuf{xs: make([]uint64, calN), m: make(map[uint64]uint64, 1<<12)}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for p := range bufs {
		wg.Add(1)
		go func(b *calBuf, p int) {
			defer wg.Done()
			var h uint64
			for i := 0; i < calReps; i++ {
				h += b.kernel(uint64(p*calReps + i))
			}
			calSink.Add(h)
		}(&bufs[p], p)
	}
	wg.Wait()
	return time.Since(start)
}

// speed converts host times to reference speed for one run: a host time
// multiplied by speed reads as the time at reference speed. The host's speed
// also flickers within a second, so the kernel samples are summed, as a
// replay's time sums its own stretch of them.
func speed(cals []time.Duration) float64 {
	var sum time.Duration
	for _, c := range cals {
		sum += c
	}
	return float64(calRef) * float64(len(cals)) / float64(sum)
}

// localSpeed is speed for the section between calibration samples i and
// i+1: their mean is the host's speed while the section ran.
func localSpeed(cals []time.Duration, i int) float64 {
	return 2 * float64(calRef) / float64(cals[i]+cals[i+1])
}

// rssEvery is how often an rssPeak samples the resident set.
const rssEvery = 5 * time.Millisecond

// rssPeak samples the process's resident set size while one replay or
// session runs. The process-wide high-water mark would be the largest of
// all of them, which swings with where the GC cycles happened to fall; the
// peak of each one, with a median taken over them, holds still.
type rssPeak struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes; written by the sampler, read after done
}

func startRSS() *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	p.peak = residentBytes()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.peak = max(p.peak, residentBytes())
			}
		}
	}()
	return p
}

// end stops the sampler and returns the peak in MB.
func (p *rssPeak) end() float64 {
	close(p.stop)
	<-p.done
	return float64(max(p.peak, residentBytes())) / (1 << 20)
}

// residentBytes reads the resident set size from /proc/self/statm (0 if
// that is unreadable).
func residentBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goStats is a runtime/metrics sample; the go.* per-layer metrics are the
// difference of two samples taken around a measured section.
type goStats struct{ gcCPU, busyCPU, allocB, cycles float64 }

var goStatNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		}
		return 0
	}
	return goStats{gcCPU: val(0), busyCPU: val(1) - val(2), allocB: val(3), cycles: val(4)}
}

func (g goStats) minus(o goStats) goStats {
	return goStats{g.gcCPU - o.gcCPU, g.busyCPU - o.busyCPU, g.allocB - o.allocB, g.cycles - o.cycles}
}

func (g goStats) plus(o goStats) goStats {
	return goStats{g.gcCPU + o.gcCPU, g.busyCPU + o.busyCPU, g.allocB + o.allocB, g.cycles + o.cycles}
}

// addGoMetrics reports a runtime/metrics delta: the GC's share of busy CPU,
// and bytes allocated and GC cycles divided by div.
func addGoMetrics(out metricSet, d goStats, div float64) {
	frac := 0.0
	if d.busyCPU > 0 {
		frac = d.gcCPU / d.busyCPU
	}
	out.add("go.gc_cpu_frac", frac, "frac")
	out.add("go.alloc_mb", d.allocB/(1<<20)/div, "MB")
	out.add("go.gc_cycles", d.cycles/div, "count")
}
