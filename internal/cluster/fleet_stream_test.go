package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mrm/internal/dist"
	"mrm/internal/llm"
	"mrm/internal/memdev"
	"mrm/internal/tier"
)

// TestGeneratorStreamMatchesGenerate pins the block-streaming iterator to
// the batch generator: same seed, byte-identical request sequence, and Reset
// replays it exactly.
func TestGeneratorStreamMatchesGenerate(t *testing.T) {
	g := testGenerator()
	const n = 500 // spans several GenBlocks
	batch, err := g.Generate(dist.NewRNG(42), n)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Stream(dist.NewRNG(42), n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	for pass := 0; pass < 2; pass++ {
		var streamed []Request
		for {
			req, ok := st.Next()
			if !ok {
				break
			}
			streamed = append(streamed, req)
		}
		if !reflect.DeepEqual(streamed, batch) {
			t.Fatalf("pass %d: streamed sequence diverged from Generate", pass)
		}
		st.Reset()
	}
}

// TestGeneratorStreamValidation pins Stream to Generate's config checks.
func TestGeneratorStreamValidation(t *testing.T) {
	for name, mut := range map[string]func(*Generator){
		"zero rate":    func(g *Generator) { g.RatePerSec = 0 },
		"bad mix":      func(g *Generator) { g.Mix = [3]float64{0.5, 0.1, 0.1} },
		"tiny context": func(g *Generator) { g.MaxContext = 1 },
	} {
		g := testGenerator()
		mut(&g)
		if _, err := g.Stream(dist.NewRNG(1), 10); err == nil {
			t.Errorf("%s should error", name)
		}
	}
}

// TestLoadHeapMatchesLinearScan pins the placement heap's tie-break to the
// linear least-loaded scan it replaces: lowest index wins among equal loads.
// The request mix deliberately recreates ties (uniform token counts over a
// node count that divides the request count).
func TestLoadHeapMatchesLinearScan(t *testing.T) {
	reqs := []Request{
		// Uniform sizes: every placement round ties all nodes at equal load.
		{PromptTokens: 64, OutputTokens: 16}, {PromptTokens: 64, OutputTokens: 16},
		{PromptTokens: 64, OutputTokens: 16}, {PromptTokens: 64, OutputTokens: 16},
		{PromptTokens: 64, OutputTokens: 16}, {PromptTokens: 64, OutputTokens: 16},
		// Skewed sizes exercise genuine least-loaded decisions.
		{PromptTokens: 2000, OutputTokens: 512}, {PromptTokens: 8, OutputTokens: 8},
		{PromptTokens: 300, OutputTokens: 100}, {PromptTokens: 8, OutputTokens: 8},
		{PromptTokens: 8, OutputTokens: 8}, {PromptTokens: 500, OutputTokens: 1},
		// Back to ties between the small nodes.
		{PromptTokens: 16, OutputTokens: 16}, {PromptTokens: 16, OutputTokens: 16},
	}
	for _, n := range []int{1, 2, 3, 7} {
		linLoad := make([]int64, n)
		heapLoad := make([]int64, n)
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		h := newLoadHeap(nodes, heapLoad)
		for k, r := range reqs {
			best := 0
			for i := 1; i < n; i++ {
				if linLoad[i] < linLoad[best] {
					best = i
				}
			}
			tokens := int64(r.PromptTokens + r.OutputTokens)
			linLoad[best] += tokens
			if got := h.assign(tokens); got != best {
				t.Fatalf("n=%d req %d: heap chose node %d, linear scan chose %d", n, k, got, best)
			}
		}
		if !reflect.DeepEqual(heapLoad, linLoad) {
			t.Fatalf("n=%d: final loads diverged: heap %v linear %v", n, heapLoad, linLoad)
		}
	}
}

// TestFleetRunUnsortedInputPinned: Run sorts unsorted input itself, so a
// shuffled stream must give results identical to the pre-sorted one (and the
// sortedness fast path must not change outcomes for sorted input).
func TestFleetRunUnsortedInputPinned(t *testing.T) {
	sorted := shortRequests(24)
	shuffled := make([]Request, len(sorted))
	// Deterministic shuffle: reverse then interleave halves.
	for i, j := 0, len(sorted)-1; j >= 0; i, j = i+1, j-1 {
		shuffled[i] = sorted[j]
	}
	want, err := fleetOf(t, 3).Run(sorted)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fleetOf(t, 3).Run(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unsorted input diverged:\n got %+v\nwant %+v", got, want)
	}
	pinned(t, "fleet/unsorted-input", got)
	// The shuffled caller's slice must not be mutated by Run's sort.
	for i, j := 0, len(sorted)-1; j >= 0; i, j = i+1, j-1 {
		if shuffled[i] != sorted[j] {
			t.Fatal("Run mutated the caller's request slice")
		}
	}
}

// testFleet builds an n-node single-HBM fleet. cfgMut, when non-nil, edits
// every node's Config (IdleTick runs, for example). Faults are
// armed after construction so weight placement matches the clean path.
func testFleet(t *testing.T, n int, cfgMut func(*Config), faults *memdev.FaultConfig) *Fleet {
	t.Helper()
	f, err := NewFleet(n, func(int) (*Sim, error) {
		m := hbmOnly(t)
		cfg := Config{
			Model: llm.Llama27B, Acc: llm.B200,
			Memory: m, PageTokens: 16, MaxBatch: 4,
		}
		if cfgMut != nil {
			cfgMut(&cfg)
		}
		s, err := NewSim(cfg)
		if err != nil {
			return nil, err
		}
		if faults != nil {
			for _, b := range m.Backends() {
				if f, ok := b.(tier.Faultable); ok {
					f.SetFaults(*faults)
				}
			}
		}
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runStreamPinned runs reqs through RunStream on a fresh fleet and requires
// the FleetResult (per-node Results, TTFT/TBT snapshots, fault stats,
// degraded-mode accounting — everything) to equal testdata/fleet/<key>.json,
// recorded from the materialized Fleet.Run that preceded RunStream.
func runStreamPinned(t *testing.T, key string, reqs []Request, mut func(*Fleet), n, workers, window int,
	faults *memdev.FaultConfig) FleetResult {
	t.Helper()
	f := testFleet(t, n, nil, faults)
	f.Workers = workers
	f.Window = window
	if mut != nil {
		mut(f)
	}
	got, err := f.RunStream(&SliceSource{Reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	pinned(t, "fleet/"+key, got)
	return got
}

// TestRunStreamMatchesRun is the core pin: streamed execution matches the
// recorded batch Run outcome at every window size — including window=1,
// where every request is its own sweep round — and at Workers 1/2/8.
func TestRunStreamMatchesRun(t *testing.T) {
	reqs, err := testGenerator().Generate(dist.NewRNG(9), 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 7, 64, 0} { // 0 = DefaultWindow
		runStreamPinned(t, "matches-run", reqs, nil, 3, 1, window, nil)
	}
	for _, workers := range []int{2, 8} {
		runStreamPinned(t, "matches-run", reqs, nil, 3, workers, 7, nil)
	}
}

// TestRunStreamLoadTiesMatchRun forces placement load ties (uniform request
// sizes across a node count dividing the request count) so the heap's
// tie-break is exercised end to end, not just in the unit pin.
func TestRunStreamLoadTiesMatchRun(t *testing.T) {
	res := runStreamPinned(t, "load-ties", shortRequests(24), nil, 4, 1, 5, nil)
	if res.Completed != 24 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Balance < 0.95 {
		t.Fatalf("uniform requests should balance, got %v", res.Balance)
	}
}

// TestRunStreamFailoverMatchesRun pins the degraded path: fail-stops,
// orphan requeue through the calendar merge, and survivors' merged feeds —
// including two nodes failing at the same virtual instant.
func TestRunStreamFailoverMatchesRun(t *testing.T) {
	reqs, err := testGenerator().Generate(dist.NewRNG(5), 48)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := map[string][]NodeFailure{
		"mid-run":      {{Node: 2, At: 2 * time.Second}, {Node: 0, At: 5 * time.Second}},
		"simultaneous": {{Node: 1, At: 3 * time.Second}, {Node: 2, At: 3 * time.Second}},
		"immediate":    {{Node: 3, At: 0}},
	}
	for name, failures := range scenarios {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				res := runStreamPinned(t, "failover-"+name, reqs, func(f *Fleet) { f.Failures = failures },
					4, workers, 9, nil)
				if res.Requeued == 0 {
					t.Fatal("scenario should requeue work")
				}
			}
		})
	}
}

// TestRunStreamAllFailMatchesRun: no survivors — every request unserved,
// identical accounting on both paths.
func TestRunStreamAllFailMatchesRun(t *testing.T) {
	res := runStreamPinned(t, "all-fail", shortRequests(10),
		func(f *Fleet) { f.Failures = []NodeFailure{{Node: 0, At: 0}, {Node: 1, At: 0}} },
		2, 1, 4, nil)
	if res.Unserved != 10 || res.Completed != 0 {
		t.Fatalf("unserved %d completed %d", res.Unserved, res.Completed)
	}
}

// TestRunStreamArmedFaultsMatchesRun: with transient-fault injection armed
// on every node's memory, graceful-degradation work (retries, remaps) must
// fold into identical fleet fault stats on both paths.
func TestRunStreamArmedFaultsMatchesRun(t *testing.T) {
	reqs, err := testGenerator().Generate(dist.NewRNG(3), 24)
	if err != nil {
		t.Fatal(err)
	}
	// Rates low enough that the fleet survives a full day of reads (the
	// engine twin tests run hotter but far shorter streams).
	faults := &memdev.FaultConfig{Seed: 7, TransientRate: 1e-3, LapseRate: 1e-4}
	res := runStreamPinned(t, "armed-faults", reqs, func(f *Fleet) {
		f.Failures = []NodeFailure{{Node: 1, At: 4 * time.Second}}
	}, 3, 2, 8, faults)
	if res.Faults.KVPagesLost == 0 && res.Faults.KVTokensRecomputed == 0 {
		t.Fatal("armed faults should register graceful-degradation work")
	}
}

// TestRunStreamGeneratorSource wires Generator.Stream straight into
// RunStream — the fleetday path — and pins it to the record of Generate +
// Run over the same seed.
func TestRunStreamGeneratorSource(t *testing.T) {
	src, err := testGenerator().Stream(dist.NewRNG(11), 80)
	if err != nil {
		t.Fatal(err)
	}
	stream := testFleet(t, 3, nil, nil)
	stream.Window = 16
	got, err := stream.RunStream(src)
	if err != nil {
		t.Fatal(err)
	}
	pinned(t, "fleet/generator-source", got)
}

// TestRunStreamRejectsUnsortedSource: RunStream requires arrival order (the
// placement replay depends on it) and must fail loudly, not silently place
// differently.
func TestRunStreamRejectsUnsortedSource(t *testing.T) {
	reqs := shortRequests(6)
	reqs[2], reqs[4] = reqs[4], reqs[2]
	stream := testFleet(t, 2, nil, nil)
	if _, err := stream.RunStream(&SliceSource{Reqs: reqs}); err == nil ||
		!strings.Contains(err.Error(), "arrival-ordered") {
		t.Fatalf("unsorted source should error, got %v", err)
	}
}

// TestNewFleetParallelSemantics: the sweep-pool build keeps node order and
// reports the lowest failing index, like the serial loop it replaced.
func TestNewFleetParallelSemantics(t *testing.T) {
	f, err := NewFleet(16, func(node int) (*Sim, error) {
		s, err := NewSim(Config{
			Model: llm.Llama27B, Acc: llm.B200,
			Memory: hbmOnly(t), PageTokens: 16, MaxBatch: 4,
		})
		if err != nil {
			return nil, err
		}
		s.cfg.MaxBatch = node // tag each sim so order is observable
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f.nodes {
		if s.cfg.MaxBatch != i {
			t.Fatalf("node %d landed at index %d", s.cfg.MaxBatch, i)
		}
	}
	_, err = NewFleet(16, func(node int) (*Sim, error) {
		if node >= 5 {
			return nil, errTestBoom
		}
		return NewSim(Config{
			Model: llm.Llama27B, Acc: llm.B200,
			Memory: hbmOnly(t), PageTokens: 16, MaxBatch: 4,
		})
	})
	if err == nil || !strings.Contains(err.Error(), "node 5") {
		t.Fatalf("want lowest failing index (node 5) in error, got %v", err)
	}
}

var errTestBoom = errTest("boom")

type errTest string

func (e errTest) Error() string { return string(e) }
