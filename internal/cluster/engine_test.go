package cluster

import (
	"testing"
	"time"

	"mrm/internal/core"
	"mrm/internal/llm"
	"mrm/internal/memdev"
	"mrm/internal/tier"
	"mrm/internal/units"
)

// memBuilder constructs a fresh memory system for one run. The returned MRM
// handle is nil for device-only managers; when non-nil, the run's record
// additionally carries the MRM's stats and device time.
type memBuilder func(t *testing.T) (*tier.Manager, *core.MRM)

func hbmOnlyMem(t *testing.T) (*tier.Manager, *core.MRM) {
	return hbmOnly(t), nil
}

func hbmPlusMRMMem(t *testing.T) (*tier.Manager, *core.MRM) {
	t.Helper()
	spec := memdev.HBM3E
	spec.Capacity = 24 * units.GiB
	spec.ReadBW = 8 * units.TBps
	hbm, err := tier.NewDeviceTier("hbm", spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Capacity = 64 * units.GiB
	cfg.ZoneSize = 64 * units.MiB
	mrm, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tier.NewManager(tier.RetentionAwarePolicy{}, hbm, tier.NewMRMTier("mrm", mrm))
	if err != nil {
		t.Fatal(err)
	}
	return m, mrm
}

// mrmOnlyShortClasses puts everything — weights included — on an MRM whose
// longest retention class is 30 seconds, so weight-refresh deadlines fall
// inside any idle window longer than that. This is the memory the IdleTick
// tests use to make housekeeping-in-idle observable.
func mrmOnlyShortClasses(t *testing.T) (*tier.Manager, *core.MRM) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Capacity = 64 * units.GiB
	cfg.ZoneSize = 64 * units.MiB
	cfg.Classes = []time.Duration{10 * time.Second, 30 * time.Second}
	mrm, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tier.NewManager(tier.StaticPolicy{}, tier.NewMRMTier("mrm", mrm))
	if err != nil {
		t.Fatal(err)
	}
	return m, mrm
}

// runPinned builds one sim over a fresh memory system, runs the stream, and
// requires the run's full record — the Result (histogram snapshots
// included), the unfinished-request list, every backend's traffic and
// energy, and, when an MRM is present, its stats and device clock — to equal
// testdata/engine/<key>.json. Faults are armed after NewSim so weight
// placement is identical whether or not a scenario injects failures. It
// returns the run's outputs for scenario-specific assertions.
func runPinned(t *testing.T, key string, mk memBuilder, mut func(*Config),
	reqs []Request, stopAt time.Duration, faults *memdev.FaultConfig) (Result, []Request, *core.MRM) {
	t.Helper()
	m, mrm := mk(t)
	cfg := Config{
		Model: llm.Llama27B, Acc: llm.B200,
		Memory: m, PageTokens: 16, MaxBatch: 4,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faults != nil {
		for _, b := range m.Backends() {
			if f, ok := b.(tier.Faultable); ok {
				f.SetFaults(*faults)
			}
		}
	}
	in := append([]Request(nil), reqs...)
	res, left, err := s.RunUntil(in, stopAt)
	if err != nil {
		t.Fatal(err)
	}
	pinned(t, "engine/"+key, recordEngine(res, left, m, mrm))
	return res, left, mrm
}

// TestEngineEquivalence pins the discrete-event engine on every scenario to
// the record both engines produced while the tick-by-tick stepping engine
// still ran beside it: results, latency histograms, device traffic, energy,
// fault accounting, and the fate of every request.
func TestEngineEquivalence(t *testing.T) {
	faults := &memdev.FaultConfig{Seed: 7, TransientRate: 0.01, LapseRate: 0.005}
	scenarios := []struct {
		name   string
		mem    memBuilder
		mut    func(*Config)
		reqs   func() []Request
		stopAt time.Duration
		faults *memdev.FaultConfig
		check  func(t *testing.T, res Result, left []Request, mrm *core.MRM)
	}{
		{
			name: "hbm-only", mem: hbmOnlyMem, stopAt: -1,
			reqs: func() []Request { return shortRequests(24) },
			check: func(t *testing.T, res Result, left []Request, _ *core.MRM) {
				if res.Completed != 24 || len(left) != 0 {
					t.Fatalf("completed %d, left %d", res.Completed, len(left))
				}
			},
		},
		{
			name: "hbm+mrm-retention-aware", mem: hbmPlusMRMMem, stopAt: -1,
			reqs: func() []Request { return shortRequests(24) },
		},
		{
			// KV lifetimes round up to a retention class, so expiry needs
			// requests that outlive the shortest class (10s here): their
			// oldest pages expire mid-decode and the rollback-recompute path
			// runs.
			name: "mrm-expiry-recompute", mem: mrmOnlyShortClasses, stopAt: -1,
			mut: func(c *Config) { c.KVLifetime = 5 * time.Second },
			reqs: func() []Request {
				return []Request{
					{ID: 0, Arrival: 0, PromptTokens: 256, OutputTokens: 1500, Class: Interactive},
					{ID: 1, Arrival: 100 * time.Millisecond, PromptTokens: 256, OutputTokens: 1500, Class: Interactive},
				}
			},
			check: func(t *testing.T, res Result, _ []Request, mrm *core.MRM) {
				if mrm.Stats().Expirations == 0 || res.Faults.KVPagesLost == 0 {
					t.Fatal("no KV page expired; the scenario exercised nothing")
				}
			},
		},
		{
			name: "chunked-prefill", mem: hbmOnlyMem, stopAt: -1,
			mut: func(c *Config) { c.PrefillChunk = 64 },
			reqs: func() []Request {
				reqs := shortRequests(16)
				for i := range reqs {
					reqs[i].PromptTokens = 300
				}
				return reqs
			},
		},
		{
			name: "prefilled-requests", mem: hbmOnlyMem, stopAt: -1,
			reqs: func() []Request {
				reqs := shortRequests(16)
				for i := range reqs {
					reqs[i].Prefilled = i%2 == 0
				}
				return reqs
			},
		},
		{
			name: "faults-armed", mem: hbmPlusMRMMem, stopAt: -1, faults: faults,
			mut: func(c *Config) { c.MaxBatch = 8 },
			reqs: func() []Request {
				reqs := shortRequests(24)
				for i := range reqs {
					reqs[i].PromptTokens = 256
					reqs[i].OutputTokens = 48
				}
				return reqs
			},
			check: func(t *testing.T, res Result, _ []Request, _ *core.MRM) {
				if res.Faults.KVPagesLost == 0 {
					t.Fatal("no KV fault fired; the scenario exercised nothing")
				}
			},
		},
		{
			name: "fail-stop-mid-stream", mem: hbmOnlyMem, stopAt: 1200 * time.Millisecond,
			reqs: func() []Request { return shortRequests(24) },
			check: func(t *testing.T, res Result, left []Request, _ *core.MRM) {
				if len(left) == 0 {
					t.Fatal("fail-stop mid-stream left nothing; the scenario exercised nothing")
				}
			},
		},
		{
			name: "fail-stop-with-faults", mem: hbmPlusMRMMem,
			stopAt: 1200 * time.Millisecond, faults: faults,
			reqs: func() []Request { return shortRequests(24) },
		},
		{
			name: "tiny-memory-truncation", stopAt: -1,
			mem: func(t *testing.T) (*tier.Manager, *core.MRM) {
				spec := memdev.HBM3E
				spec.Capacity = 14 * units.GiB // weights barely fit; KV won't
				hbm, err := tier.NewDeviceTier("hbm", spec)
				if err != nil {
					t.Fatal(err)
				}
				m, err := tier.NewManager(tier.StaticPolicy{}, hbm)
				if err != nil {
					t.Fatal(err)
				}
				return m, nil
			},
			reqs: func() []Request {
				reqs := shortRequests(4)
				for i := range reqs {
					reqs[i].PromptTokens = 1024
					reqs[i].OutputTokens = 512
				}
				return reqs
			},
			check: func(t *testing.T, res Result, _ []Request, _ *core.MRM) {
				if res.Truncated == 0 {
					t.Fatal("nothing truncated; the scenario exercised nothing")
				}
			},
		},
		{
			name: "idle-tick", mem: mrmOnlyShortClasses, stopAt: -1,
			mut: func(c *Config) { c.IdleTick = true },
			reqs: func() []Request {
				reqs := make([]Request, 4)
				for i := range reqs {
					reqs[i] = Request{
						ID:           uint64(i),
						Arrival:      time.Duration(i) * 5 * time.Minute,
						PromptTokens: 64,
						OutputTokens: 4,
						Class:        Interactive,
					}
				}
				return reqs
			},
			check: func(t *testing.T, _ Result, _ []Request, mrm *core.MRM) {
				if mrm.Stats().Refreshes == 0 {
					t.Fatal("no refresh fired under IdleTick; the scenario exercised nothing")
				}
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			res, left, mrm := runPinned(t, sc.name, sc.mem, sc.mut, sc.reqs(), sc.stopAt, sc.faults)
			if sc.check != nil {
				sc.check(t, res, left, mrm)
			}
		})
	}
}

// TestAdmissionOrderPinned pins RunUntil's single admission sort: requests
// are consumed in (class, arrival) order, and equal-(class, arrival) requests
// keep their input order — the stability the removed arrival-only pre-sort
// used to provide redundantly. RunUntil with stopAt 0 halts before admitting
// anything, so the returned unfinished list IS the sorted pending queue.
func TestAdmissionOrderPinned(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: Throughput, Arrival: 100 * time.Millisecond},
		{ID: 1, Class: Interactive, Arrival: 200 * time.Millisecond},
		{ID: 2, Class: Interactive, Arrival: 200 * time.Millisecond}, // tie with 1: input order holds
		{ID: 3, Class: BestEffort, Arrival: 50 * time.Millisecond},
		{ID: 4, Class: Interactive, Arrival: 100 * time.Millisecond},
	}
	want := []uint64{4, 1, 2, 0, 3}
	s, err := NewSim(Config{
		Model: llm.Llama27B, Acc: llm.B200,
		Memory: hbmOnly(t), PageTokens: 16, MaxBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := append([]Request(nil), reqs...)
	for i := range in {
		in[i].PromptTokens, in[i].OutputTokens = 64, 8
	}
	res, left, err := s.RunUntil(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TokensOut != 0 || res.Completed != 0 {
		t.Fatalf("stopAt 0 ran work: %+v", res)
	}
	if len(left) != len(want) {
		t.Fatalf("%d unfinished, want %d", len(left), len(want))
	}
	for i, r := range left {
		if r.ID != want[i] {
			t.Fatalf("admission order %v at %d, want %v", r.ID, i, want[i])
		}
	}
}

// idleGapRequests is a stream whose two requests are separated by a long idle
// window — much longer than mrmOnlyShortClasses's 30-second refresh class.
func idleGapRequests() []Request {
	return []Request{
		{ID: 0, Arrival: 0, PromptTokens: 64, OutputTokens: 4, Class: Interactive},
		{ID: 1, Arrival: 10 * time.Minute, PromptTokens: 64, OutputTokens: 4, Class: Interactive},
	}
}

// TestIdleTickConsumesDeadlinesInIdleWindows is the idle-jump regression
// test: without IdleTick an idle window jumps the request clock without aging
// memory, so refresh deadlines inside the window never fire; with IdleTick
// the window is ticked through every housekeeping deadline, the device clock
// tracks the simulation clock, and the refresh work lands.
func TestIdleTickConsumesDeadlinesInIdleWindows(t *testing.T) {
	// Default mode: the 10-minute gap is skipped. The weights' 30-second
	// refresh class fires at most during busy periods, and device time stays
	// far behind the simulation clock.
	defRes, _, defMRM := runPinned(t, "idle-gap-default", mrmOnlyShortClasses, nil, idleGapRequests(), -1, nil)
	// IdleTick: the same stream ages memory through the gap.
	idleRes, _, idleMRM := runPinned(t, "idle-gap-idletick", mrmOnlyShortClasses,
		func(c *Config) { c.IdleTick = true }, idleGapRequests(), -1, nil)
	if idleMRM.Stats().Refreshes == 0 {
		t.Fatal("IdleTick consumed no refresh deadlines in a 10-minute idle window")
	}
	if defMRM.Stats().Refreshes >= idleMRM.Stats().Refreshes {
		t.Fatalf("idle window fired no extra refreshes: default %d, IdleTick %d",
			defMRM.Stats().Refreshes, idleMRM.Stats().Refreshes)
	}
	if defMRM.Now() >= idleMRM.Now() {
		t.Fatalf("device time did not advance through the idle window: default %v, IdleTick %v",
			defMRM.Now(), idleMRM.Now())
	}
	// IdleTick keeps the device clock in lockstep with the simulation clock.
	if idleMRM.Now() != idleRes.SimTime {
		t.Fatalf("IdleTick device time %v != sim time %v", idleMRM.Now(), idleRes.SimTime)
	}
	if defRes.Completed != 2 || idleRes.Completed != 2 {
		t.Fatalf("requests lost: default %d, IdleTick %d completed", defRes.Completed, idleRes.Completed)
	}
}

// TestFailStopAtArrivalBoundary pins the stopAt == arrival tie under both
// idle semantics. Default mode preserves the legacy quirk the experiment
// goldens depend on: admission jumps the clock to the arrival (== stopAt),
// prefills, and runs exactly one decode step past the fail-stop before
// halting, so one token is generated and wasted. IdleTick mode resolves the
// tie the other way: the fail-stop wins, the request is never admitted, and
// no work is wasted.
func TestFailStopAtArrivalBoundary(t *testing.T) {
	stopAt := time.Second
	req := Request{ID: 1, Arrival: stopAt, PromptTokens: 64, OutputTokens: 8, Class: Interactive}

	t.Run("default-admits-and-runs-one-step", func(t *testing.T) {
		res, left, _ := runPinned(t, "arrival-boundary-default", hbmOnlyMem, nil, []Request{req}, stopAt, nil)
		if res.TokensOut != 1 || res.WastedTokens != 1 {
			t.Fatalf("tokens %d, wasted %d; want exactly one wasted token", res.TokensOut, res.WastedTokens)
		}
		if res.SimTime <= stopAt {
			t.Fatalf("sim time %v did not run past the fail-stop", res.SimTime)
		}
		if len(left) != 1 || left[0].ID != 1 || left[0].Prefilled {
			t.Fatalf("unfinished %+v; want request 1, fresh", left)
		}
	})

	t.Run("idletick-fail-stop-wins-tie", func(t *testing.T) {
		res, left, _ := runPinned(t, "arrival-boundary-idletick", hbmOnlyMem,
			func(c *Config) { c.IdleTick = true }, []Request{req}, stopAt, nil)
		if res.TokensOut != 0 || res.WastedTokens != 0 {
			t.Fatalf("tokens %d, wasted %d; want none", res.TokensOut, res.WastedTokens)
		}
		if res.SimTime != stopAt {
			t.Fatalf("sim time %v, want exactly the fail-stop %v", res.SimTime, stopAt)
		}
		if len(left) != 1 || left[0].ID != 1 {
			t.Fatalf("unfinished %+v; want request 1", left)
		}
	})
}

// TestFailStopMidPrefillWastesNothing halts a chunked prefill before its
// first token: the request comes back fresh with zero generated — and
// therefore zero wasted — tokens, even though decode steps ran.
func TestFailStopMidPrefillWastesNothing(t *testing.T) {
	req := Request{ID: 1, Arrival: 0, PromptTokens: 2048, OutputTokens: 8, Class: Interactive}
	res, left, _ := runPinned(t, "fail-stop-mid-prefill", hbmOnlyMem,
		func(c *Config) { c.PrefillChunk = 16 }, []Request{req}, 10*time.Millisecond, nil)
	if res.DecodeSteps == 0 {
		t.Fatal("no prefill chunk ran before the fail-stop; the test exercised nothing")
	}
	if res.TokensOut != 0 || res.WastedTokens != 0 {
		t.Fatalf("tokens %d, wasted %d; prefill-only work must waste nothing", res.TokensOut, res.WastedTokens)
	}
	if len(left) != 1 || left[0].ID != 1 || left[0].PromptTokens != 2048 {
		t.Fatalf("unfinished %+v; want the full request back", left)
	}
}

// TestFailStopClearsPrefilledFlag pins the requeue contract for phase-split
// requests: a Prefilled request caught in the batch at fail-stop loses its
// credit (its transferred KV died with the node) and its generated tokens
// count as waste, while a Prefilled request still waiting in the queue keeps
// the flag — its KV was never written here.
func TestFailStopClearsPrefilledFlag(t *testing.T) {
	reqs := []Request{
		{ID: 1, Arrival: time.Second, PromptTokens: 64, OutputTokens: 500, Class: Interactive, Prefilled: true},
		{ID: 2, Arrival: time.Second + time.Millisecond, PromptTokens: 64, OutputTokens: 8, Class: Interactive, Prefilled: true},
	}
	res, left, _ := runPinned(t, "fail-stop-prefilled", hbmOnlyMem,
		func(c *Config) { c.MaxBatch = 1 }, reqs, time.Second+20*time.Millisecond, nil)
	if len(left) != 2 {
		t.Fatalf("%d unfinished, want 2", len(left))
	}
	// Batch members come back first, then the untouched queue.
	if left[0].ID != 1 || left[0].Prefilled {
		t.Fatalf("batched request %+v; want Prefilled cleared", left[0])
	}
	if left[1].ID != 2 || !left[1].Prefilled {
		t.Fatalf("queued request %+v; want Prefilled kept", left[1])
	}
	if res.TokensOut == 0 || res.WastedTokens != res.TokensOut {
		t.Fatalf("tokens %d, wasted %d; every generated token was on the failed node",
			res.TokensOut, res.WastedTokens)
	}
}
