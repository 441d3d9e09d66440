package main

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"time"

	"mrm"
	"mrm/internal/cluster"
	"mrm/internal/dist"
	"mrm/internal/llm"
	"mrm/internal/metrics"
	"mrm/internal/units"
)

// fleetShape sizes one fleet-day workload: Nodes serving an open-loop
// Poisson stream of Rate req/s for Dur of simulated time.
type fleetShape struct {
	Nodes int
	Rate  float64
	Dur   time.Duration
	Mem   mrm.MemoryConfig
}

func (s fleetShape) requests() int { return int(s.Rate * s.Dur.Seconds()) }

// fleetMix is the SLA class mix (interactive, throughput, best-effort).
var fleetMix = [3]float64{0.5, 0.3, 0.2}

var fleetShapes = map[string]fleetShape{
	"fleetday-hbm": {Nodes: 50, Rate: 2.5, Dur: time.Hour, Mem: mrm.HBMOnly},
	"fleetday-mrm": {Nodes: 6, Rate: 0.15, Dur: 30 * time.Minute, Mem: mrm.HBMPlusMRM},
}

// replay is one fleet build plus one streamed replay of the day.
type replay struct {
	setup, host, cpu time.Duration
	day              int     // index into the run's days
	seq              int     // position in the run, and of its calibration in the run's samples
	rssMB            float64 // peak resident set during build and replay
	res              cluster.FleetResult
	src              *tracedSource   // traced replays only
	windows          []time.Duration // host gaps between Fleet.Progress calls (traced only)
	gen              goStats         // runtime/metrics delta over build and replay
}

// runReplay builds a fleet for shape and replays the seeded day through
// cluster.Fleet.RunStream. With a tracer, every node's backends are
// decorated and the source and progress callbacks are timed.
func runReplay(shape fleetShape, seed uint64, tr *tracer) (replay, error) {
	// The go.* figures cover the build too: a small day can run its replay
	// without a GC cycle, while the build's device arrays always start one.
	g0 := readGoStats()
	start := time.Now()
	gen := cluster.Generator{
		Workload:   llm.SplitwiseConv,
		RatePerSec: shape.Rate,
		Mix:        fleetMix,
		MaxContext: llm.Llama27B.MaxContext,
	}
	stream, err := gen.Stream(dist.NewRNG(seed), shape.requests())
	if err != nil {
		return replay{}, err
	}
	fleet, err := cluster.NewFleet(shape.Nodes, func(int) (*cluster.Sim, error) {
		ms, err := buildMemory(shape.Mem, tr)
		if err != nil {
			return nil, err
		}
		return cluster.NewSim(cluster.Config{
			Model: llm.Llama27B, Acc: llm.B200, Memory: ms.Manager,
			PageTokens: 16, MaxBatch: 16, ScratchTier: ms.ScratchTier,
		})
	})
	if err != nil {
		return replay{}, err
	}
	rp := replay{setup: time.Since(start)}
	var src cluster.RequestSource = stream
	var last time.Time
	if tr != nil {
		rp.src = &tracedSource{Stream: stream}
		src = rp.src
		fleet.Progress = func(int64) {
			now := time.Now()
			rp.windows = append(rp.windows, now.Sub(last))
			last = now
		}
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	last = t0
	res, err := fleet.RunStream(src)
	rp.host = time.Since(t0)
	rp.cpu = cpuTime() - cpu0
	g1 := readGoStats()
	rp.gen = g1.minus(g0)
	rp.res = res
	return rp, err
}

// fleetPin is a fleet-day outcome pinned at pinSeed. The simulator is
// deterministic, so any change to these values is a model change.
type fleetPin struct {
	Completed, Truncated int
	TokensOut            int64
	Energy               units.Energy
	TTFT, TBT            metrics.Snapshot
}

// pinSeed is the seed whose outputs are pinned; other seeds are checked
// against invariants only.
const pinSeed = 1

// fleetPins hold the outputs at pinSeed; a mismatch prints the new values
// as a Go literal, for a change that deliberately alters the model. They
// include the present admission-order behaviour: Sim.admit serves pending
// requests by class before arrival, which is why TTFT p99 is far above the
// single-class figure.
var fleetPins = map[string]fleetPin{
	"fleetday-hbm": {
		Completed: 9000, Truncated: 0, TokensOut: 4631613, Energy: 1.2860923301416973e+06,
		TTFT: metrics.Snapshot{Count: 9000, Mean: 870.5891693642914, P50: 0.05183451544564823,
			P90: 2890.826550033658, P99: 3513.817739231851, P999: 3513.817739231851, Max: 3614.641403171},
		TBT: metrics.Snapshot{Count: 4622613, Mean: 0.002607876389202592, P50: 0.001878221061889908,
			P90: 0.003373015175662995, P99: 0.005232653614929733, P999: 0.05714755327882719, Max: 0.281887184},
	},
	"fleetday-mrm": {
		Completed: 270, Truncated: 0, TokensOut: 126019, Energy: 12335.46600256195,
		TTFT: metrics.Snapshot{Count: 270, Mean: 405.05388784593697, P50: 0.05183451544564823,
			P90: 1390.5369981815231, P99: 1774.7167327531693, P999: 1774.7167327531693, Max: 1815.162175769},
		TBT: metrics.Snapshot{Count: 125749, Mean: 0.0017812758873311106, P50: 0.0015452171158230627,
			P90: 0.002397138911589261, P99: 0.0026428456500271606, P999: 0.018605603544078954, Max: 0.107895227},
	},
}

func decodeSteps(res cluster.FleetResult) int64 {
	var steps int64
	for _, r := range res.PerNode {
		steps += r.DecodeSteps
	}
	return steps
}

func pinOf(res cluster.FleetResult) fleetPin {
	return fleetPin{Completed: res.Completed, Truncated: res.Truncated, TokensOut: res.TokensOut,
		Energy: res.Energy, TTFT: res.TTFT, TBT: res.TBT}
}

// verifyFleet checks a replay's outcome: conservation invariants for every
// day, and the pinned values for the pinned day.
func verifyFleet(name string, shape fleetShape, pinned bool, res cluster.FleetResult) []string {
	var bad []string
	n := shape.requests()
	if res.Completed+res.Truncated != n {
		bad = append(bad, fmt.Sprintf("completed %d + truncated %d != requests %d", res.Completed, res.Truncated, n))
	}
	if res.FailedNodes != 0 || res.Unserved != 0 || res.Requeued != 0 {
		bad = append(bad, fmt.Sprintf("unexpected failover: %d failed nodes, %d unserved, %d requeued",
			res.FailedNodes, res.Unserved, res.Requeued))
	}
	if len(res.PerNode) != shape.Nodes {
		bad = append(bad, fmt.Sprintf("%d per-node results for %d nodes", len(res.PerNode), shape.Nodes))
	}
	var sum cluster.FleetResult
	for _, r := range res.PerNode {
		sum.Completed += r.Completed
		sum.Truncated += r.Truncated
		sum.TokensOut += r.TokensOut
		sum.Energy += r.Energy
	}
	if sum.Completed != res.Completed || sum.Truncated != res.Truncated ||
		sum.TokensOut != res.TokensOut || sum.Energy != res.Energy {
		bad = append(bad, fmt.Sprintf("per-node sums (%d, %d, %d, %v) differ from totals (%d, %d, %d, %v)",
			sum.Completed, sum.Truncated, sum.TokensOut, sum.Energy,
			res.Completed, res.Truncated, res.TokensOut, res.Energy))
	}
	if pinned {
		want, ok := fleetPins[name]
		if got := pinOf(res); !ok || got != want {
			bad = append(bad, fmt.Sprintf("outputs at seed %d differ from the pin:\n got  %#v\n want %#v", pinSeed, got, want))
		}
	}
	return bad
}

// daysPerSeed is how many distinct days an untraced fleet-day run replays.
// A small day's work varies with its seed (decode steps by up to 17% between
// seeds on fleetday-mrm), so a run cycles through several days drawn from
// its seed and reports their mean; the figures of two seeds then compare.
const daysPerSeed = 16

// daySeeds returns the seeds of a run's days: seed itself first, so the
// pinned day is day 0 of pinSeed, then further seeds drawn from it.
func daySeeds(seed uint64, n int) []uint64 {
	rng := dist.NewRNG(seed)
	days := []uint64{seed}
	for len(days) < n {
		days = append(days, rng.Uint64())
	}
	return days
}

// runFleetDay measures a fleet-day workload. After one untimed replay that
// runs cold (heap growth, page faults), it alternates fleet builds and
// replays of the run's days until the time budget is spent. Untraced, it
// cycles through daysPerSeed days and reports end-to-end metrics; traced, it
// interleaves untraced and traced replays of day 0 and reports per-layer
// metrics plus the tracing overhead.
func runFleetDay(name string, seed uint64, budget time.Duration, traced bool, log func(string, ...any)) (result, error) {
	shape := fleetShapes[name]
	n := shape.requests()
	cycle := daysPerSeed
	if traced {
		cycle = 1
	}
	days := daySeeds(seed, cycle)
	log("%s: %d nodes x %s, %.3g req/s over %s (%d requests, %s), seed %d, %d days",
		name, shape.Nodes, llm.Llama27B.Name, shape.Rate, shape.Dur, n, shape.Mem, seed, cycle)
	var plain, withTrace []replay
	var cals []time.Duration
	var tr *tracer
	out := result{Correct: true, Metrics: metricSet{}}
	firsts := make([]*cluster.FleetResult, cycle)
	deadline := time.Now().Add(budget)
	for i := 0; ; i++ {
		enough := len(plain) > cycle && (!traced || len(withTrace) >= 1)
		if enough && time.Now().After(deadline) {
			break
		}
		day := 0
		if i > 0 {
			day = (i - 1) % cycle
		}
		var t *tracer // nil: untraced
		if traced && i > 0 && i%2 == 0 {
			tr = &tracer{}
			t = tr
		}
		// Keep the previous fleet's garbage, and its pages, out of this
		// replay and out of the peak RSS.
		debug.FreeOSMemory()
		cal := calibrate()
		cals = append(cals, cal)
		rss := startRSS()
		rp, err := runReplay(shape, days[day], t)
		rp.rssMB = rss.end()
		if err != nil {
			return result{}, fmt.Errorf("%s: replay %d: %w", name, i, err)
		}
		rp.day = day
		rp.seq = i
		out.Attempted += int64(n)
		bad := verifyFleet(name, shape, seed == pinSeed && day == 0, rp.res)
		if firsts[day] == nil {
			firsts[day] = &rp.res
		} else if !reflect.DeepEqual(*firsts[day], rp.res) {
			bad = append(bad, "outputs differ from the run's first replay of the same day")
		}
		for _, b := range bad {
			log("%s: replay %d: %s", name, i, b)
		}
		if len(bad) > 0 {
			out.Correct = false
			out.Failed += int64(n)
		}
		log("%s: replay %d (%s, day %d): setup %.3fs, replay %.3fs (%.0f req/s, %.3f CPU s), calibration %.2fms", name, i,
			traceKind(t), day, rp.setup.Seconds(), rp.host.Seconds(), float64(n)/rp.host.Seconds(), rp.cpu.Seconds(), ms(cal))
		if t != nil {
			withTrace = append(withTrace, rp)
		} else {
			plain = append(plain, rp)
		}
	}
	timed := plain[1:]
	var hosts []float64
	for _, rp := range timed {
		hosts = append(hosts, ms(rp.host))
	}
	if !traced {
		// The host's speed drifts within a run too, by up to twice over a
		// few replays, so each replay's times are taken at reference speed
		// by the calibrations just before and just after it. Days differ in
		// work, and a run replays some of them twice, so a replay's time is
		// taken per decode step, and the run's figures are for a day of the
		// mean work of its days.
		cals = append(cals, calibrate())
		var setups, perStep, rss []float64
		for _, rp := range timed {
			sp := localSpeed(cals, rp.seq)
			setups = append(setups, rp.setup.Seconds()*sp)
			perStep = append(perStep, ms(rp.host)*sp/float64(decodeSteps(rp.res)))
			rss = append(rss, rp.rssMB)
		}
		var steps float64
		for _, res := range firsts {
			steps += float64(decodeSteps(*res)) / float64(cycle)
		}
		p50 := median(perStep) * steps
		log("%s: at reference speed, median setup %.4fs, replay %.1fms; run's speed factor %.3f", name, median(setups), p50, speed(cals))
		out.Metrics.add("setup_s", median(setups), "s")
		out.Metrics.add("replay_rps", float64(n)/(p50/1000), "1/s")
		out.Metrics.add("p50_ms", p50, "ms")
		out.Metrics.add("p90_ms", interpQuantile(perStep, 0.9)*steps, "ms")
		out.Metrics.add("peak_rss_mb", median(rss), "MB")
		return out, nil
	}
	first := firsts[0]
	reps := float64(len(withTrace))
	var tracedHosts, windows []float64
	var reqs, busyNS int64
	var gs goStats
	for _, rp := range withTrace {
		tracedHosts = append(tracedHosts, ms(rp.host))
		for _, w := range rp.windows {
			windows = append(windows, ms(w))
		}
		reqs += rp.src.reqs.Load()
		busyNS += rp.src.busyNS.Load()
		gs = gs.plus(rp.gen)
	}
	// tr holds the last traced replay's decorators; every traced replay of
	// one day does identical work, so its counts are per-replay figures.
	m := out.Metrics
	m.add("cluster.gen.requests", float64(reqs)/reps, "count")
	m.add("cluster.gen.busy_ms", float64(busyNS)/1e6/reps, "ms")
	m.add("dispatch.ms.p50", quantile(windows, 0.5), "ms")
	m.add("dispatch.ms.p99", quantile(windows, 0.99), "ms")
	m.add("dispatch.ok_frac", float64(first.Completed+first.Truncated)/float64(n), "frac")
	m.add("cluster.sim.tokens_out", float64(first.TokensOut), "count")
	m.add("cluster.host_ns_per_token", median(hosts)*1e6/float64(first.TokensOut), "ns")
	last := withTrace[len(withTrace)-1]
	st, _, _ := tr.totals()
	m.add("cluster.self_ms", ms(last.cpu-time.Duration(last.src.busyNS.Load())-st.busy()), "ms")
	tr.layerMetrics(m, 1)
	addGoMetrics(m, gs, reps)
	m.add("trace.slowdown", median(tracedHosts)/median(hosts), "ratio")
	return out, nil
}
