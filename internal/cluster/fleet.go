package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mrm/internal/eventq"
	"mrm/internal/metrics"
	"mrm/internal/sweep"
	"mrm/internal/units"
)

// Fleet schedules a request stream across multiple serving nodes — the
// rack-scale orchestration layer the paper's §4 describes as "building up
// towards a rack-scale OS for foundation model inference". Placement is
// token-balanced: each request goes to the node with the least assigned
// work, the static analogue of join-shortest-queue.
type Fleet struct {
	nodes []*Sim
	// Workers bounds the goroutines used to run nodes (0 = the sweep
	// default, 1 = serial). Nodes are independent simulators, so results are
	// identical at any worker count.
	Workers int
	// Failures schedules fail-stop events: each named node halts at its
	// simulated time, its in-flight and unserved requests are requeued onto
	// surviving nodes (fresh, least-loaded), and the fleet reports
	// degraded-mode latency and goodput. Multiple entries for one node keep
	// the earliest time.
	Failures []NodeFailure
	// Window bounds the number of requests RunStream buffers between
	// execution sweeps (0 = DefaultWindow). Peak memory for a streamed
	// replay is O(nodes + Window + orphans), independent of stream length;
	// smaller windows trade memory for more sweep barriers.
	Window int
	// Progress, when non-nil, is called by RunStream at every window
	// dispatch with the cumulative number of requests fed into node
	// execution buffers so far. The call points are window boundaries of the
	// deterministic replay, so the sequence of values is itself
	// deterministic; what the callback does with wall-clock time is the
	// caller's business (mrmsim fleetday -progress).
	Progress func(fed int64)
}

// DefaultWindow is RunStream's buffered-request budget when Fleet.Window is
// zero: large enough that sweep-barrier overhead is negligible against node
// simulation work, small enough that a streamed million-user day never holds
// more than a sliver of it in memory.
const DefaultWindow = 8192

// NodeFailure schedules a fail-stop: node Node halts at simulated time At.
type NodeFailure struct {
	Node int
	At   time.Duration
}

// NewFleet constructs n nodes with the given factory. Construction fans out
// over the sweep pool — nodes are independent simulators, and thousand-node
// fleets are built inside every daemon rebuild and benchmark setup — so mk
// must be safe for concurrent calls (each call should build its own memory
// system, as every existing factory does). Nodes land in index order and a
// failing factory reports the lowest failing index, exactly as the serial
// loop it replaces did.
func NewFleet(n int, mk func(node int) (*Sim, error)) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	nodes, err := sweep.Run(context.Background(), sweep.Config{}, n,
		func(_ context.Context, c sweep.Cell) (*Sim, error) {
			s, err := mk(c.Index)
			if err != nil {
				return nil, fmt.Errorf("cluster: building node %d: %w", c.Index, err)
			}
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	return &Fleet{nodes: nodes}, nil
}

// NumNodes returns the fleet size.
func (f *Fleet) NumNodes() int { return len(f.nodes) }

// FleetResult aggregates per-node results.
type FleetResult struct {
	PerNode []Result
	// Aggregates.
	Completed      int
	Truncated      int
	TokensOut      int64
	Energy         units.Energy
	WallTime       time.Duration // max node sim time (nodes run in parallel)
	TokensPerSec   float64
	TokensPerJoule float64
	// Balance is min/max of per-node token output (1 = perfectly even).
	Balance float64
	// TTFT and TBT are fleet-wide latency distributions: every node's
	// histogram merged after the barrier (metrics.Histogram.Merge), exactly
	// as if one accumulator had observed all requests.
	TTFT metrics.Snapshot
	TBT  metrics.Snapshot
	// Degraded-mode accounting (zero when no failures are scheduled).
	FailedNodes  int
	Requeued     int   // requests moved to survivors after fail-stops
	Unserved     int   // requests lost outright (no surviving node)
	WastedTokens int64 // tokens generated on failed nodes and redone
	// GoodTokens is TokensOut minus WastedTokens: output that reached a
	// completed request. GoodTokensPerSec is the fleet's goodput.
	GoodTokens       int64
	GoodTokensPerSec float64
	// Faults aggregates per-node graceful-degradation work.
	Faults FaultStats
}

// failurePlan validates Failures and splits the fleet by fate: failAt[i] < 0
// means node i survives. failing and surviving are ascending node indices.
func (f *Fleet) failurePlan() (failAt []time.Duration, failing, surviving []int, err error) {
	failAt = make([]time.Duration, len(f.nodes))
	for i := range failAt {
		failAt[i] = -1
	}
	for _, nf := range f.Failures {
		if nf.Node < 0 || nf.Node >= len(f.nodes) {
			return nil, nil, nil, fmt.Errorf("cluster: failure names bad node %d", nf.Node)
		}
		if nf.At < 0 {
			return nil, nil, nil, fmt.Errorf("cluster: failure time %v for node %d", nf.At, nf.Node)
		}
		if failAt[nf.Node] < 0 || nf.At < failAt[nf.Node] {
			failAt[nf.Node] = nf.At
		}
	}
	for i := range f.nodes {
		if failAt[i] >= 0 {
			failing = append(failing, i)
		} else {
			surviving = append(surviving, i)
		}
	}
	return failAt, failing, surviving, nil
}

// arrivalOrdered reports whether reqs already have non-decreasing arrivals —
// Generator output always does — in which case Run's defensive copy and
// stable sort are the identity and are skipped.
func arrivalOrdered(reqs []Request) bool {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			return false
		}
	}
	return true
}

// Run places a materialized request slice on the fleet and runs it: a
// stable sort by arrival (on a copy, when the input is not already in
// arrival order), then RunStream over the sorted slice. The caller's slice
// is never mutated.
func (f *Fleet) Run(reqs []Request) (FleetResult, error) {
	ordered := reqs
	if !arrivalOrdered(reqs) {
		ordered = make([]Request, len(reqs))
		copy(ordered, reqs)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })
	}
	return f.RunStream(&SliceSource{Reqs: ordered})
}

// reduce folds the per-node results already stored in out.PerNode into the
// fleet aggregates. It runs serially in node order after the sweep barriers,
// so sums and histogram merges come out independent of which worker finished
// first.
func (f *Fleet) reduce(out *FleetResult) {
	ttft := metrics.NewHistogram(1e-6, 1.05)
	tbt := metrics.NewHistogram(1e-6, 1.05)
	var minTok, maxTok int64 = 1<<62 - 1, 0
	for i, res := range out.PerNode {
		out.Completed += res.Completed
		out.Truncated += res.Truncated
		out.TokensOut += res.TokensOut
		out.Energy += res.Energy
		if res.SimTime > out.WallTime {
			out.WallTime = res.SimTime
		}
		if res.TokensOut < minTok {
			minTok = res.TokensOut
		}
		if res.TokensOut > maxTok {
			maxTok = res.TokensOut
		}
		out.WastedTokens += res.WastedTokens
		out.Faults = out.Faults.Add(res.Faults)
		nodeTTFT, nodeTBT := f.nodes[i].Observations()
		ttft.Merge(nodeTTFT)
		tbt.Merge(nodeTBT)
	}
	out.TTFT = ttft.Snapshot()
	out.TBT = tbt.Snapshot()
	out.GoodTokens = out.TokensOut - out.WastedTokens
	if out.WallTime > 0 {
		out.TokensPerSec = float64(out.TokensOut) / out.WallTime.Seconds()
		out.GoodTokensPerSec = float64(out.GoodTokens) / out.WallTime.Seconds()
	}
	if out.Energy > 0 {
		out.TokensPerJoule = float64(out.TokensOut) / float64(out.Energy)
	}
	if maxTok > 0 {
		out.Balance = float64(minTok) / float64(maxTok)
	}
}

// RequestSource is a restartable stream of requests in arrival order (what
// Generator.Stream yields). RunStream replays the source once per SLA class,
// so Reset must rewind to the first request and the replayed sequence must
// be identical — for a seeded generator stream that holds by construction.
type RequestSource interface {
	// Next returns the stream's next request, or ok=false at the end.
	Next() (Request, bool)
	// Reset rewinds the source to the beginning.
	Reset()
}

// SliceSource adapts an arrival-sorted request slice to RequestSource (what
// Run feeds RunStream).
type SliceSource struct {
	Reqs []Request
	next int
}

// Next yields the next request in the slice.
func (s *SliceSource) Next() (Request, bool) {
	if s.next >= len(s.Reqs) {
		return Request{}, false
	}
	r := s.Reqs[s.next]
	s.next++
	return r, true
}

// Reset rewinds to the first request.
func (s *SliceSource) Reset() { s.next = 0 }

// loadHeap is a deterministic min-heap of node indices keyed by (assigned
// load, node index): the least-loaded node is always at the root, and load
// ties break to the lowest node index — the choice a linear least-loaded
// scan makes, which the placement test keeps as the heap's oracle. The key
// is a total order (node indices are unique), so the root is unique no
// matter how the heap's interior is arranged, and assignment is O(log n)
// per request instead of O(n).
type loadHeap struct {
	heap []int   // node indices in heap order
	load []int64 // indexed by node; shared with (and mutated for) the caller
}

// newLoadHeap builds a heap over the given node indices and their loads.
func newLoadHeap(nodes []int, load []int64) loadHeap {
	h := loadHeap{heap: append([]int(nil), nodes...), load: load}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

// less orders node a before node b by (load, index).
func (h *loadHeap) less(a, b int) bool {
	if h.load[a] != h.load[b] {
		return h.load[a] < h.load[b]
	}
	return a < b
}

// assign places `tokens` of work on the least-loaded node and returns it.
func (h *loadHeap) assign(tokens int64) int {
	n := h.heap[0]
	h.load[n] += tokens
	h.siftDown(0)
	return n
}

func (h *loadHeap) siftDown(i int) {
	n := len(h.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && h.less(h.heap[l], h.heap[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h.less(h.heap[r], h.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		h.heap[i], h.heap[least] = h.heap[least], h.heap[i]
		i = least
	}
}

// RunStream places an arrival-ordered request source on the fleet and runs
// every node to completion — or, for nodes with a scheduled failure, until
// their fail-stop time — with peak memory O(nodes × window) instead of
// O(requests). Each request goes to the node with the least assigned token
// volume (lowest index on ties), and each node runs its shard exactly as one
// RunUntil over the whole shard would. Nodes simulate concurrently on the
// sweep pool; every phase reduces in node order, so the outcome is
// bit-identical at any worker count and any Window.
//
// Three things make that possible. Placement is a pure function of the
// arrival-ordered stream — a deterministic min-heap keyed (load, node index)
// assigns each request in O(log nodes) — so it can be replayed exactly
// rather than stored. Each node consumes its shard strictly in admission order
// (class priority, then arrival; see RunSegment), so the source is replayed
// once per SLA class and each node is fed its class-c requests in arrival
// order, never holding more than a window of them. And execution is
// windowed: buffered shard segments flush to the nodes in sweep rounds every
// Window requests, buffers recycle across rounds, and nodes park exactly
// when their next decision would depend on a request not yet fed.
//
// Fail-stops run in two phases: failing nodes stream first (halting at
// their fail-stop, one sweep barrier), their unfinished requests are
// requeued — fresh, through the requeue calendar, heap-placed on survivors
// against the canonical full-stream loads — and the survivors then stream
// with orphan segments merged into admission order.
//
// The replay is pipelined (see DESIGN.md §14): one persistent sweep pool
// serves the whole call; execution of window w runs asynchronously on that
// pool while the placement loop fills window w+1 (double-buffered); request
// synthesis for a BlockSource is sharded across the same pool and harvested
// in order; and the first placement pass records a manifest that lets every
// later pass skip the heap. None of it changes a single emitted byte: the
// recorded fleet outcomes in testdata/fleet pin the pipelined path at every
// worker count and window size.
func (f *Fleet) RunStream(src RequestSource) (FleetResult, error) {
	failAt, failing, surviving, err := f.failurePlan()
	if err != nil {
		return FleetResult{}, err
	}
	window := f.Window
	if window <= 0 {
		window = DefaultWindow
	}
	pool := sweep.NewPool(f.Workers)
	defer pool.Close()
	sr := &streamRun{f: f, pool: pool, window: window,
		load: make([]int64, len(f.nodes)), man: &placementManifest{}}
	perNode := make([]Result, len(f.nodes))
	out := FleetResult{PerNode: perNode, FailedNodes: len(failing)}
	if len(failing) > 0 {
		if err := sr.phase(src, failing, failAt, nil); err != nil {
			return FleetResult{}, err
		}
		type partial struct {
			res  Result
			left []Request
		}
		parts, err := sweep.MapOn(pool, 0, failing,
			func(_ context.Context, _ sweep.Cell, node int) (partial, error) {
				res, left := f.nodes[node].Harvest(failAt[node])
				return partial{res: res, left: left}, nil
			})
		if err != nil {
			return FleetResult{}, err
		}
		// Requeue through a cross-node event merge: an orphan re-arrives no
		// earlier than its node's fail-stop (detection), fresh (its KV died).
		// Each failing node pushes its orphans in node order onto one
		// calendar, and popping yields them in (re-arrival time, push order)
		// — the order a stable sort by arrival produces, with the tie-break
		// explicit in the event queue rather than implicit in sort stability.
		var orphans []Request
		var merge eventq.Calendar
		for k, node := range failing {
			perNode[node] = parts[k].res
			for _, req := range parts[k].left {
				if req.Arrival < failAt[node] {
					req.Arrival = failAt[node]
				}
				merge.Push(req.Arrival, eventq.KindArrival, uint64(len(orphans)))
				orphans = append(orphans, req)
			}
		}
		if len(surviving) == 0 {
			out.Unserved = len(orphans)
			f.reduce(&out)
			return out, nil
		}
		out.Requeued = len(orphans)
		// Heap-placed requeue against a copy of the canonical loads: the
		// (load, lowest-index) choice among survivors — and the originals
		// stay pristine for phase 2's replay check.
		requeueLoad := append([]int64(nil), sr.load...)
		h := newLoadHeap(surviving, requeueLoad)
		orphansFor := make([][]Request, len(f.nodes))
		for merge.Len() > 0 {
			ev, _ := merge.Pop()
			req := orphans[ev.Data]
			node := h.assign(int64(req.PromptTokens + req.OutputTokens))
			orphansFor[node] = append(orphansFor[node], req)
		}
		// Each node feeds its orphans in admission order; the stable sort
		// keeps calendar pop order among equal (class, arrival) keys, as the
		// node's own admission sort would keep shard-append order.
		for _, node := range surviving {
			o := orphansFor[node]
			sort.SliceStable(o, func(i, j int) bool {
				if o[i].Class != o[j].Class {
					return o[i].Class < o[j].Class
				}
				return o[i].Arrival < o[j].Arrival
			})
		}
		if err := sr.phase(src, surviving, nil, orphansFor); err != nil {
			return FleetResult{}, err
		}
	} else {
		if err := sr.phase(src, surviving, nil, nil); err != nil {
			return FleetResult{}, err
		}
	}
	res, err := sweep.MapOn(pool, 0, surviving,
		func(_ context.Context, _ sweep.Cell, node int) (Result, error) {
			r, _ := f.nodes[node].Harvest(-1)
			return r, nil
		})
	if err != nil {
		return FleetResult{}, err
	}
	for k, node := range surviving {
		perNode[node] = res[k]
	}
	f.reduce(&out)
	return out, nil
}

// streamRun carries the state one RunStream call shares across its phases:
// the persistent sweep pool every dispatch in the call reuses, the canonical
// full-stream placement loads (filled by the first replay pass and verified
// identical on every later one — a source whose replays diverge would
// silently corrupt placement), the placement manifest the first pass
// records, and the cumulative fed-request count the Progress callback
// reports.
type streamRun struct {
	f         *Fleet
	pool      *sweep.Pool
	window    int
	load      []int64
	loadKnown bool
	man       *placementManifest
	fed       int64
}

// phase feeds the target nodes their shards in admission order: one
// placement replay of the source per SLA class, so each node receives its
// class-c requests in arrival order, all of class c before any of class c+1
// — exactly the (class, arrival) stable order a node's admission sort gives
// its whole shard.
// Every pass replays placement over the whole stream (assignments depend on
// the loads every earlier request accumulated, whatever its class); the
// first pass runs the heap and records the manifest, later passes replay
// the manifest and verify their load sums against the canonical vector.
// Requests owned by non-target nodes are placed but not buffered. Orphan
// lists (requeued work for surviving nodes, already in admission order)
// merge into the feed: stream requests first on equal (class, arrival)
// keys, matching the shard-append-then-stable-sort order (orphans are
// appended to a shard after its stream requests).
//
// Execution is double-buffered: every `window` buffered requests, the
// filled buffer set is dispatched asynchronously onto the pool and the loop
// keeps filling the other set; the next dispatch first waits out the
// previous window, so at most one window executes while one fills. The two
// sets touch disjoint buffers and each node's Sim is only ever touched by
// its own in-flight segment task, and segments reach each node in exactly
// the order the serial path fed them — which is why the pipelined replay is
// bit-identical to the barriered one. Peak memory is O(target × window)
// (two window sets) plus the orphans and the manifest.
//
// stopAt, when non-nil, carries per-node fail-stop times (-1 = none).
func (r *streamRun) phase(src RequestSource, target []int, stopAt []time.Duration,
	orphans [][]Request) error {
	f := r.f
	inTarget := make([]bool, len(f.nodes))
	for _, n := range target {
		inTarget[n] = true
	}
	var bufs [2][][]Request // double buffer: bufs[cur] fills, bufs[cur^1] executes
	var active [2][]int     // target nodes with buffered work, per set
	for s := range bufs {
		bufs[s] = make([][]Request, len(f.nodes))
	}
	cur := 0
	var inflight *sweep.Handle[struct{}]
	passLoad := make([]int64, len(f.nodes))
	allNodes := make([]int, len(f.nodes))
	for i := range allNodes {
		allNodes[i] = i
	}
	orphanNext := make([]int, len(f.nodes))
	buffered := 0

	// harvest waits out the executing window and recycles its buffers.
	harvest := func() error {
		if inflight == nil {
			return nil
		}
		_, err := inflight.Wait()
		inflight = nil
		prev := cur ^ 1
		for _, n := range active[prev] {
			bufs[prev][n] = bufs[prev][n][:0] // recycle: capacity survives
		}
		active[prev] = active[prev][:0]
		return err
	}
	// dispatch submits one window's segments (buffer set, node list) onto
	// the pool. The closure captures the set's slice header, not `cur`, so
	// the fill loop is free to flip sets while the sweep runs.
	dispatch := func(set int, nodes []int, final bool) *sweep.Handle[struct{}] {
		segs := bufs[set]
		return sweep.MapAsync(r.pool, 0, nodes,
			func(_ context.Context, _ sweep.Cell, node int) (struct{}, error) {
				stop := time.Duration(-1)
				if stopAt != nil {
					stop = stopAt[node]
				}
				if err := f.nodes[node].RunSegment(context.Background(), segs[node], stop, !final); err != nil {
					return struct{}{}, fmt.Errorf("cluster: node %d: %w", node, err)
				}
				return struct{}{}, nil
			})
	}
	flush := func() error {
		if err := harvest(); err != nil {
			return err
		}
		buffered = 0
		if len(active[cur]) == 0 {
			return nil
		}
		inflight = dispatch(cur, active[cur], false)
		cur ^= 1
		if f.Progress != nil {
			f.Progress(r.fed)
		}
		return nil
	}
	emit := func(node int, req Request) {
		if len(bufs[cur][node]) == 0 {
			active[cur] = append(active[cur], node)
		}
		bufs[cur][node] = append(bufs[cur][node], req)
		buffered++
		r.fed++
	}

	for class := SLAClass(0); class <= BestEffort; class++ {
		// Request synthesis: a BlockSource is pumped through the pool in
		// ordered chunks (parallel generation, serial consumption); anything
		// else is drawn serially through Next. Either way the consumption
		// order is the stream order.
		var next func() (Request, bool, error)
		var pump *blockPump
		if bs, ok := src.(BlockSource); ok && r.pool.Workers() > 1 {
			pump = newBlockPump(bs, r.pool)
			next = pump.next
		} else {
			src.Reset()
			next = func() (Request, bool, error) {
				req, ok := src.Next()
				return req, ok, nil
			}
		}
		for i := range passLoad {
			passLoad[i] = 0
		}
		// The first pass runs the placement heap and records the manifest;
		// later passes replay the manifest (no heap) and re-accumulate the
		// per-node sums for the divergence check below.
		record := !r.man.complete
		var h loadHeap
		if record {
			h = newLoadHeap(allNodes, passLoad)
		}
		prev := time.Duration(-1)
		pos := 0
		passErr := func() error {
			for {
				req, ok, err := next()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				if req.Arrival < prev {
					return fmt.Errorf("cluster: RunStream source not arrival-ordered (%v after %v)", req.Arrival, prev)
				}
				prev = req.Arrival
				tokens := int64(req.PromptTokens + req.OutputTokens)
				var node int
				if record {
					node = h.assign(tokens)
					r.man.append(node)
				} else {
					var err error
					if node, err = r.man.lookup(pos, len(f.nodes)); err != nil {
						return err
					}
					passLoad[node] += tokens
				}
				pos++
				if !inTarget[node] || req.Class != class {
					continue
				}
				// Orphans sorting strictly before this stream request go
				// first; equal keys emit the stream request first (the
				// shard's stable order).
				if orphans != nil {
					for o := orphans[node]; orphanNext[node] < len(o); orphanNext[node]++ {
						or := o[orphanNext[node]]
						if or.Class > class || (or.Class == class && or.Arrival >= req.Arrival) {
							break
						}
						emit(node, or)
					}
				}
				emit(node, req)
				if buffered >= r.window {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}()
		if passErr != nil {
			if pump != nil {
				pump.drain()
			}
			if inflight != nil {
				_, _ = inflight.Wait() // the pass error wins
			}
			return passErr
		}
		if !record && pos != r.man.n {
			if inflight != nil {
				_, _ = inflight.Wait()
			}
			return fmt.Errorf("cluster: placement manifest records %d positions but the replayed stream has %d", r.man.n, pos)
		}
		// Class close-out: trailing orphans of this class (arrivals past the
		// node's last stream request of the class).
		if orphans != nil {
			for _, node := range target {
				for o := orphans[node]; orphanNext[node] < len(o); orphanNext[node]++ {
					if o[orphanNext[node]].Class > class {
						break
					}
					emit(node, o[orphanNext[node]])
				}
			}
		}
		if r.loadKnown {
			for i, l := range passLoad {
				if l != r.load[i] {
					if inflight != nil {
						_, _ = inflight.Wait()
					}
					return fmt.Errorf("cluster: RunStream source replay diverged (node %d load %d vs %d)", i, l, r.load[i])
				}
			}
		} else {
			copy(r.load, passLoad)
			r.loadKnown = true
		}
		if record {
			r.man.complete = true
		}
	}
	// Close-out: wait for the in-flight window, then give every target node
	// its more=false call with whatever remains buffered.
	if err := harvest(); err != nil {
		return err
	}
	err := func() error {
		_, err := dispatch(cur, target, true).Wait()
		return err
	}()
	if err == nil && f.Progress != nil {
		f.Progress(r.fed)
	}
	return err
}
