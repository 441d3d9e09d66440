package mrm

import (
	"fmt"
	"io"
	"time"

	"mrm/internal/cluster"
	"mrm/internal/dist"
	"mrm/internal/llm"
	"mrm/internal/report"
)

// FleetDayParams sizes a streamed fleet-day replay: an open-loop Poisson
// request stream of Rate req/s fleet-wide over Duration of simulated time,
// served by Nodes identical nodes. This is ROADMAP item 1's bar — a
// million-user day is Nodes=1000, Rate=25, Duration=24h ≈ 2.16M requests —
// made affordable by the stream-native path: the request stream is generated
// block by block (Generator.Stream) and executed windowed (Fleet.RunStream),
// so peak memory is O(Nodes × Window) no matter how long the day.
type FleetDayParams struct {
	Nodes      int
	Rate       float64       // fleet-wide request arrival rate, req/s
	Duration   time.Duration // simulated day length; requests = Rate × Duration
	Mix        [3]float64    // SLA class probabilities (interactive, throughput, best-effort)
	Seed       uint64
	Window     int          // RunStream buffer budget (0 = cluster.DefaultWindow)
	Memory     MemoryConfig // per-node memory system (HBMOnly, HBMPlusMRM, HBMPlusHBF, ...)
	Model      llm.ModelConfig
	Acc        llm.Accelerator
	MaxBatch   int
	PageTokens int
	// Progress, when non-nil, receives periodic requests/sec + ETA lines
	// during the replay (mrmsim fleetday -progress points it at stderr).
	// It is reporting-only: the replay's results and stdout tables are
	// byte-identical with or without it.
	Progress io.Writer
}

// DefaultFleetDayParams returns the million-user-day configuration: 1000
// nodes serving 25 req/s for 24 simulated hours (2.16M requests), HBM-only
// nodes, default window.
func DefaultFleetDayParams() FleetDayParams {
	return FleetDayParams{
		Nodes: 1000, Rate: 25, Duration: 24 * time.Hour,
		Mix: [3]float64{0.5, 0.3, 0.2}, Seed: 42,
		Memory: HBMOnly,
		Model:  llm.Llama27B, Acc: llm.B200,
		MaxBatch: 16, PageTokens: 16,
	}
}

// FleetDayResult is the replay outcome plus the sizing that produced it.
type FleetDayResult struct {
	Params   FleetDayParams
	Requests int
	Fleet    cluster.FleetResult
}

// RunFleetDay replays the configured day through the stream-native fleet
// path and reports the outcome. Output is deterministic in (Params); the
// request stream is identical to Generator.Generate with the same seed, and
// execution is bit-identical to Fleet.Run over that materialized stream.
func RunFleetDay(p FleetDayParams) (FleetDayResult, *report.Table, error) {
	if p.Nodes <= 0 || p.Rate <= 0 || p.Duration <= 0 {
		return FleetDayResult{}, nil, fmt.Errorf("mrm: fleetday needs positive nodes, rate, duration")
	}
	n := int(p.Rate * p.Duration.Seconds())
	if n <= 0 {
		return FleetDayResult{}, nil, fmt.Errorf("mrm: fleetday stream is empty (rate %v over %v)", p.Rate, p.Duration)
	}
	gen := cluster.Generator{
		Workload:   llm.SplitwiseConv,
		RatePerSec: p.Rate,
		Mix:        p.Mix,
		MaxContext: p.Model.MaxContext,
	}
	src, err := gen.Stream(dist.NewRNG(p.Seed), n)
	if err != nil {
		return FleetDayResult{}, nil, err
	}
	fleet, err := cluster.NewFleet(p.Nodes, func(int) (*cluster.Sim, error) {
		ms, err := buildMemory(p.Memory)
		if err != nil {
			return nil, err
		}
		return cluster.NewSim(cluster.Config{
			Model: p.Model, Acc: p.Acc, Memory: ms.Manager,
			PageTokens: p.PageTokens, MaxBatch: p.MaxBatch,
			ScratchTier: ms.ScratchTier,
		})
	})
	if err != nil {
		return FleetDayResult{}, nil, err
	}
	fleet.Window = p.Window
	if p.Progress != nil {
		// Pacing is reporting-only, exactly like mrmsim's -timing: wall-clock
		// reads feed a stderr-style writer while the replay's own output
		// stays byte-identical. RunStream invokes the callback at its
		// (deterministic) window boundaries; the callback throttles itself to
		// roughly one line every 5 wall seconds. `fed` counts requests handed
		// to node execution buffers, which for a no-failure day converges on
		// the request count — good enough for an ETA.
		start := time.Now() //mrm:allow-nondet -progress reports wall-clock pacing to stderr only; replay output is unaffected
		last := start
		total := int64(n)
		fleet.Progress = func(fed int64) {
			now := time.Now() //mrm:allow-nondet -progress reports wall-clock pacing to stderr only; replay output is unaffected
			if now.Sub(last) < 5*time.Second && fed < total {
				return
			}
			last = now
			elapsed := now.Sub(start).Seconds()
			if elapsed <= 0 || fed <= 0 {
				return
			}
			rate := float64(fed) / elapsed
			eta := time.Duration(float64(total-fed) / rate * float64(time.Second))
			if eta < 0 {
				eta = 0
			}
			fmt.Fprintf(p.Progress, "fleetday: %d/%d requests fed, %.0f req/s, ETA %s\n",
				fed, total, rate, eta.Round(time.Second))
		}
	}
	res, err := fleet.RunStream(src)
	if err != nil {
		return FleetDayResult{}, nil, err
	}
	out := FleetDayResult{Params: p, Requests: n, Fleet: res}
	tab := report.NewTable(
		fmt.Sprintf("Fleet day: %d nodes × %s, %.3g req/s over %s (%d requests, %s)",
			p.Nodes, p.Model.Name, p.Rate, p.Duration, n, p.Memory),
		"metric", "value")
	tab.AddRow("sim hours", res.WallTime.Hours())
	tab.AddRow("completed", res.Completed)
	tab.AddRow("truncated", res.Truncated)
	tab.AddRow("tokens/s", res.TokensPerSec)
	tab.AddRow("good tokens/s", res.GoodTokensPerSec)
	tab.AddRow("tokens/kJ", res.TokensPerJoule*1000)
	tab.AddRow("balance", res.Balance)
	tab.AddRow("ttft p50 (s)", res.TTFT.P50)
	tab.AddRow("ttft p99 (s)", res.TTFT.P99)
	tab.AddRow("tbt p99 (s)", res.TBT.P99)
	return out, tab, nil
}
