package cluster

import (
	"testing"
	"time"

	"mrm/internal/core"
	"mrm/internal/dist"
	"mrm/internal/llm"
	"mrm/internal/memdev"
	"mrm/internal/tier"
	"mrm/internal/units"
)

// benchNode builds one single-HBM serving node — both weights and KV pages
// on the device tier.
func benchNode(b *testing.B) *Sim {
	b.Helper()
	spec := memdev.HBM3E
	spec.Capacity = 64 * units.GiB
	spec.ReadBW = 8 * units.TBps
	hbm, err := tier.NewDeviceTier("hbm", spec)
	if err != nil {
		b.Fatal(err)
	}
	m, err := tier.NewManager(tier.StaticPolicy{}, hbm)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSim(Config{
		Model:       llm.Llama27B,
		Acc:         llm.B200,
		Memory:      m,
		PageTokens:  16,
		MaxBatch:    16,
		KVLifetime:  30 * time.Minute,
		ScratchTier: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// benchSim builds a serving simulator over a single HBM device tier holding
// both weights and KV pages, with a fixed request stream — the decode loop's
// per-step cost (weights read + per-page KV reads) is what this measures.
func benchSim(b *testing.B) (*Sim, []Request) {
	b.Helper()
	sim := benchNode(b)
	g := Generator{
		Workload:   llm.SplitwiseConv,
		RatePerSec: 50,
		Mix:        [3]float64{0.5, 0.3, 0.2},
		MaxContext: 4096,
	}
	reqs, err := g.Generate(dist.NewRNG(42), 48)
	if err != nil {
		b.Fatal(err)
	}
	return sim, reqs
}

// BenchmarkDecodeCoalesce runs a fixed serving workload to completion: its
// hot path is decodeStep's weights read plus the per-request KV page reads,
// the accesses the coalesced read path batches into ranged device calls.
func BenchmarkDecodeCoalesce(b *testing.B) {
	var res Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, reqs := benchSim(b)
		b.StartTimer()
		var err error
		res, err = sim.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TokensOut)/float64(res.DecodeSteps), "tokens/step")
	b.ReportMetric(float64(res.DecodeSteps), "steps")
}

// benchMRMSim builds a serving simulator whose only tier is a zoned MRM
// module, so every prefill admission and per-step KV page append rides the
// full batched write chain: cluster PutBatch → tier.MRMTier.PutBatch →
// core.MRM.PutBatch → controller.AppendVec → memdev.WriteSpans.
func benchMRMSim(b *testing.B) (*Sim, []Request) {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Capacity = 64 * units.GiB
	mrm, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := tier.NewManager(tier.StaticPolicy{}, tier.NewMRMTier("mrm", mrm))
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSim(Config{
		Model:       llm.Llama27B,
		Acc:         llm.B200,
		Memory:      m,
		PageTokens:  16,
		MaxBatch:    16,
		KVLifetime:  30 * time.Minute,
		ScratchTier: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := Generator{
		Workload:   llm.SplitwiseConv,
		RatePerSec: 50,
		Mix:        [3]float64{0.5, 0.3, 0.2},
		MaxContext: 4096,
	}
	reqs, err := g.Generate(dist.NewRNG(42), 32)
	if err != nil {
		b.Fatal(err)
	}
	return sim, reqs
}

// BenchmarkSimWritePath measures the coalesced append path: a fixed workload
// served entirely out of zoned MRM, where each decode step's KV page appends
// are issued as one PutBatch through the core append chain.
func BenchmarkSimWritePath(b *testing.B) {
	var res Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, reqs := benchMRMSim(b)
		b.StartTimer()
		var err error
		res, err = sim.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TokensOut)/float64(res.DecodeSteps), "tokens/step")
	b.ReportMetric(float64(res.DecodeSteps), "steps")
}

// BenchmarkFleetRun measures rack-scale orchestration end to end: a
// four-node fleet (each node the single-HBM benchNode configuration) serving
// one token-balanced request stream serially, so results are deterministic
// and the per-node decode/write loops dominate.
func BenchmarkFleetRun(b *testing.B) {
	var res FleetResult
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := NewFleet(4, func(int) (*Sim, error) {
			return benchNode(b), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		f.Workers = 1
		g := Generator{
			Workload:   llm.SplitwiseConv,
			RatePerSec: 200,
			Mix:        [3]float64{0.5, 0.3, 0.2},
			MaxContext: 4096,
		}
		reqs, err := g.Generate(dist.NewRNG(7), 96)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err = f.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Completed), "completed")
	b.ReportMetric(res.TokensPerSec, "tokens/sec")
}

// BenchmarkFleetDay is the scale target: a 1000-node fleet serving a sparse
// day-long Poisson stream (0.25 req/s fleet-wide over ~24 simulated hours),
// run serially. The discrete-event engine jumps each node's clock between
// arrivals instead of grinding through idle ticks, which is what makes a
// simulated fleet-day of wall time affordable; the budget is under a minute
// of CPU. Reported sim-hours is the span the simulation covered.
func BenchmarkFleetDay(b *testing.B) {
	var res FleetResult
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := NewFleet(1000, func(int) (*Sim, error) {
			return benchNode(b), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		f.Workers = 1
		g := Generator{
			Workload:   llm.SplitwiseConv,
			RatePerSec: 0.25,
			Mix:        [3]float64{0.5, 0.3, 0.2},
			MaxContext: 4096,
		}
		reqs, err := g.Generate(dist.NewRNG(11), 21600)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err = f.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WallTime.Hours(), "sim-hours")
	b.ReportMetric(float64(res.Completed), "completed")
}

// benchFleetDayStream is the shared body of the streamed fleet-day
// benchmarks: the same 1000 nodes and 21.6k-request day as BenchmarkFleetDay,
// but generated block by block (Generator.Stream) and executed windowed
// (Fleet.RunStream), so the request stream is never materialized.
func benchFleetDayStream(b *testing.B, workers int) {
	var res FleetResult
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := NewFleet(1000, func(int) (*Sim, error) {
			return benchNode(b), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		f.Workers = workers
		g := Generator{
			Workload:   llm.SplitwiseConv,
			RatePerSec: 0.25,
			Mix:        [3]float64{0.5, 0.3, 0.2},
			MaxContext: 4096,
		}
		b.StartTimer()
		src, err := g.Stream(dist.NewRNG(11), 21600)
		if err != nil {
			b.Fatal(err)
		}
		res, err = f.RunStream(src)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WallTime.Hours(), "sim-hours")
	b.ReportMetric(float64(res.Completed), "completed")
}

// BenchmarkFleetDayStream is the streamed fleet-day at Workers=1 — the
// serial reference, with results bit-identical to BenchmarkFleetDay's
// materialized slice; the interesting deltas are B/op and allocs/op.
func BenchmarkFleetDayStream(b *testing.B) { benchFleetDayStream(b, 1) }

// BenchmarkFleetDayStreamParallel is the same day through the pipelined
// path at the default worker count: window execution overlaps the next
// window's generation+placement on the persistent pool, and request
// synthesis fans out in ordered chunks. On a single-CPU host it tracks
// BenchmarkFleetDayStream; with cores the overlap shows up as wall-time.
func BenchmarkFleetDayStreamParallel(b *testing.B) { benchFleetDayStream(b, 0) }

// dayGenerator is the fleet-day request mix shared by the generation and
// placement microbenches: same workload, rate, and seed as the fleet-day
// benchmarks, so their costs decompose BenchmarkFleetDayStream's.
func dayGenerator() Generator {
	return Generator{
		Workload:   llm.SplitwiseConv,
		RatePerSec: 0.25,
		Mix:        [3]float64{0.5, 0.3, 0.2},
		MaxContext: 4096,
	}
}

// BenchmarkGeneratorStream isolates request synthesis: one op drains the
// 21.6k-request fleet-day stream through the serial block iterator. Compare
// against BenchmarkFleetPlacement and BenchmarkFleetDayStream to see where
// a streamed replay's time actually goes.
func BenchmarkGeneratorStream(b *testing.B) {
	st, err := dayGenerator().Stream(dist.NewRNG(11), 21600)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		st.Reset()
		n = 0
		for {
			_, ok := st.Next()
			if !ok {
				break
			}
			n++
		}
	}
	b.ReportMetric(float64(n), "requests")
}

// BenchmarkFleetPlacement isolates the placement heap: one op replays the
// 21.6k-request day through loadHeap.assign over 1000 nodes — generation
// plus placement, no execution. Subtracting BenchmarkGeneratorStream leaves
// the heap's own cost.
func BenchmarkFleetPlacement(b *testing.B) {
	st, err := dayGenerator().Stream(dist.NewRNG(11), 21600)
	if err != nil {
		b.Fatal(err)
	}
	const nodes = 1000
	idx := make([]int, nodes)
	for i := range idx {
		idx[i] = i
	}
	load := make([]int64, nodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset()
		for j := range load {
			load[j] = 0
		}
		h := newLoadHeap(idx, load)
		for {
			req, ok := st.Next()
			if !ok {
				break
			}
			h.assign(int64(req.PromptTokens + req.OutputTokens))
		}
	}
}
