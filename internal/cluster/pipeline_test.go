package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mrm/internal/dist"
	"mrm/internal/memdev"
	"mrm/internal/sweep"
)

// runGenPinned feeds a generator sequence through a generator-fed RunStream
// — the fleetday path, which at Workers > 1 also exercises the block pump
// (parallel request synthesis) — and requires the FleetResult to equal
// testdata/fleet/<key>.json, recorded from batch Run over the same
// generated requests.
func runGenPinned(t *testing.T, key string, seed uint64, nreqs, nodes, workers, window int,
	cfgMut func(*Config), fleetMut func(*Fleet), faults *memdev.FaultConfig) FleetResult {
	t.Helper()
	f := testFleet(t, nodes, cfgMut, faults)
	f.Workers = workers
	f.Window = window
	if fleetMut != nil {
		fleetMut(f)
	}
	src, err := testGenerator().Stream(dist.NewRNG(seed), nreqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.RunStream(src)
	if err != nil {
		t.Fatal(err)
	}
	pinned(t, "fleet/"+key, got)
	return got
}

// TestRunStreamPipelinedIdleTick: the pipelined replay must stay
// bit-identical to the batch record when nodes advance memory time through
// idle windows
// (IdleTick schedules refresh/scrub work inside arrival gaps, so segment
// boundaries landing inside idle windows are exactly the edge the pipeline
// must not move).
func TestRunStreamPipelinedIdleTick(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		runGenPinned(t, "pipelined-idletick", 21, 90, 3, workers, 16,
			func(c *Config) { c.IdleTick = true }, nil, nil)
	}
}

// TestRunStreamPipelinedArmedFaults: parallel generation + async windows +
// failover requeue under armed transient and lapse faults — fault-injection
// event indices are derived from device read counters, so any reordering or
// double-charge in the pipelined path would shift them and diverge.
func TestRunStreamPipelinedArmedFaults(t *testing.T) {
	faults := &memdev.FaultConfig{Seed: 7, TransientRate: 1e-3, LapseRate: 1e-4}
	for _, workers := range []int{2, 8} {
		res := runGenPinned(t, "pipelined-armed-faults", 13, 64, 3, workers, 8, nil,
			func(f *Fleet) { f.Failures = []NodeFailure{{Node: 1, At: 4 * time.Second}} },
			faults)
		if res.Requeued == 0 {
			t.Fatal("failover scenario should requeue work")
		}
		if res.Faults.KVPagesLost == 0 && res.Faults.KVTokensRecomputed == 0 {
			t.Fatal("armed faults should register graceful-degradation work")
		}
	}
}

// TestStreamSeekBlock pins seek-then-drain to plain drain: after
// SeekBlock(b), the remaining requests — absolute arrivals included — must
// be byte-identical to the tail of a full drain.
func TestStreamSeekBlock(t *testing.T) {
	g := testGenerator()
	const n = GenBlock*3 + 17 // a short final block
	st, err := g.Stream(dist.NewRNG(4), n)
	if err != nil {
		t.Fatal(err)
	}
	var all []Request
	for {
		req, ok := st.Next()
		if !ok {
			break
		}
		all = append(all, req)
	}
	for _, b := range []int{0, 1, 2, 3, st.Blocks()} {
		if err := st.SeekBlock(b); err != nil {
			t.Fatal(err)
		}
		var tail []Request
		for {
			req, ok := st.Next()
			if !ok {
				break
			}
			tail = append(tail, req)
		}
		want := all[min(b*GenBlock, n):]
		if len(tail) != len(want) {
			t.Fatalf("SeekBlock(%d): %d requests, want %d", b, len(tail), len(want))
		}
		for i := range want {
			if tail[i] != want[i] {
				t.Fatalf("SeekBlock(%d) request %d diverged:\n got %+v\nwant %+v", b, i, tail[i], want[i])
			}
		}
	}
	// Seeking mid-stream then crossing a block boundary must keep the
	// absolute clock exact (covered above), and out-of-range seeks error.
	for _, b := range []int{-1, st.Blocks() + 1} {
		if err := st.SeekBlock(b); err == nil {
			t.Fatalf("SeekBlock(%d) should error", b)
		}
	}
}

// TestGenerateBlockMatchesNext: each block's relative arrivals plus the
// running sum of block advances must reproduce the serial stream exactly —
// the recombination invariant the chunked pump depends on.
func TestGenerateBlockMatchesNext(t *testing.T) {
	g := testGenerator()
	const n = GenBlock*2 + 5
	st, err := g.Stream(dist.NewRNG(8), n)
	if err != nil {
		t.Fatal(err)
	}
	var serial []Request
	for {
		req, ok := st.Next()
		if !ok {
			break
		}
		serial = append(serial, req)
	}
	var clock time.Duration
	var rebuilt []Request
	for b := 0; b < st.Blocks(); b++ {
		block, adv := st.GenerateBlock(b, nil)
		for _, req := range block {
			req.Arrival += clock
			rebuilt = append(rebuilt, req)
		}
		clock += adv
	}
	if !reflect.DeepEqual(rebuilt, serial) {
		t.Fatal("block-rebuilt stream diverged from serial Next drain")
	}
}

// TestBlockPumpMatchesSerialDrain runs the pump (parallel chunked synthesis,
// ordered harvest) against a serial drain of the same stream, across sizes
// that cover partial chunks and partial blocks.
func TestBlockPumpMatchesSerialDrain(t *testing.T) {
	g := testGenerator()
	pool := sweep.NewPool(4)
	defer pool.Close()
	for _, n := range []int{1, GenBlock, GenBlock + 1, genChunkBlocks*GenBlock + 3, 3*genChunkBlocks*GenBlock - 1} {
		st, err := g.Stream(dist.NewRNG(77), n)
		if err != nil {
			t.Fatal(err)
		}
		var serial []Request
		for {
			req, ok := st.Next()
			if !ok {
				break
			}
			serial = append(serial, req)
		}
		pump := newBlockPump(st, pool)
		for i := 0; ; i++ {
			req, ok, err := pump.next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if i != len(serial) {
					t.Fatalf("n=%d: pump yielded %d requests, want %d", n, i, len(serial))
				}
				break
			}
			if i >= len(serial) || req != serial[i] {
				t.Fatalf("n=%d: pump request %d diverged", n, i)
			}
		}
	}
}

// TestPlacementManifestPaging exercises append/at across page boundaries.
func TestPlacementManifestPaging(t *testing.T) {
	var m placementManifest
	const n = manifestPageSize*2 + 100
	for i := 0; i < n; i++ {
		m.append(i % 1000)
	}
	if m.n != n {
		t.Fatalf("n = %d, want %d", m.n, n)
	}
	for _, i := range []int{0, manifestPageSize - 1, manifestPageSize, n - 1} {
		if got := m.at(i); got != i%1000 {
			t.Fatalf("at(%d) = %d, want %d", i, got, i%1000)
		}
	}
	if _, err := m.lookup(n, 2000); err == nil || !strings.Contains(err.Error(), "manifest ends") {
		t.Fatalf("lookup past end should error, got %v", err)
	}
	if _, err := m.lookup(0, 0); err == nil || !strings.Contains(err.Error(), "bad node") {
		t.Fatalf("lookup with out-of-range node should error, got %v", err)
	}
}

// TestPlacementManifestDivergence: a corrupted manifest must error loudly on
// the replay passes — via the canonical-load check for a swapped node id,
// and via the bounds check for an impossible node id — never silently
// misplace.
func TestPlacementManifestDivergence(t *testing.T) {
	reqs := shortRequests(12)
	run := func(corrupt func(*placementManifest)) error {
		f := testFleet(t, 2, nil, nil)
		pool := sweep.NewPool(1)
		defer pool.Close()
		sr := &streamRun{f: f, pool: pool, window: 4,
			load: make([]int64, 2), man: &placementManifest{}}
		// Record pass state: place the whole stream once so the manifest and
		// canonical loads are filled, exactly as RunStream's first class pass
		// would. Replaying with a corrupted manifest must then error.
		if err := sr.phase(&SliceSource{Reqs: reqs}, []int{0, 1}, nil, nil); err != nil {
			return err
		}
		corrupt(sr.man)
		// Fresh nodes for the replay: the first phase already close-out ran
		// the originals.
		f2 := testFleet(t, 2, nil, nil)
		sr.f = f2
		return sr.phase(&SliceSource{Reqs: reqs}, []int{0, 1}, nil, nil)
	}
	if err := run(func(*placementManifest) {}); err != nil {
		t.Fatalf("clean manifest replay should succeed, got %v", err)
	}
	// Swap one placement to the other node: per-node load sums shift, the
	// canonical-load verification must catch it.
	err := run(func(m *placementManifest) { m.pages[0][3] ^= 1 })
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("swapped manifest entry should report divergence, got %v", err)
	}
	// An impossible node id fails the bounds check at lookup time.
	err = run(func(m *placementManifest) { m.pages[0][3] = 99 })
	if err == nil || !strings.Contains(err.Error(), "bad node") {
		t.Fatalf("out-of-range manifest entry should error, got %v", err)
	}
	// A short manifest fails the length check.
	err = run(func(m *placementManifest) { m.pages[0] = m.pages[0][:len(m.pages[0])-1]; m.n-- })
	if err == nil || !strings.Contains(err.Error(), "manifest ends") {
		t.Fatalf("truncated manifest should error, got %v", err)
	}
}

// TestRunStreamDivergentSourceErrors: a source whose replays disagree must
// fail the canonical-load verification, not silently corrupt placement.
func TestRunStreamDivergentSourceErrors(t *testing.T) {
	f := testFleet(t, 2, nil, nil)
	src := &divergingSource{reqs: shortRequests(9)}
	if _, err := f.RunStream(src); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("diverging source should error, got %v", err)
	}
}

// divergingSource yields different token counts on each replay.
type divergingSource struct {
	reqs []Request
	next int
	pass int
}

func (d *divergingSource) Next() (Request, bool) {
	if d.next >= len(d.reqs) {
		return Request{}, false
	}
	r := d.reqs[d.next]
	r.PromptTokens += d.pass * 7 // replays disagree
	d.next++
	return r, true
}

func (d *divergingSource) Reset() { d.next = 0; d.pass++ }
