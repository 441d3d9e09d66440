package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mrm/internal/cluster"
	"mrm/internal/dist"
	"mrm/internal/fault"
	"mrm/internal/metrics"
	"mrm/internal/tier"
)

// call is one admitted request's journey through the daemon: queued, fed to
// a node sim, answered exactly once through out.
type call struct {
	id       uint64
	req      cluster.Request
	enqueued time.Time
	// canceled marks a call whose client gave up (deadline) while it was
	// still queued; workers skip it instead of feeding it to a sim.
	canceled atomic.Bool
	// fed marks that a worker handed the call to a sim (for timeout-stage
	// reporting).
	fed atomic.Bool
	// delivered guards out so completion and node-failure paths can race
	// benignly: exactly one outcome wins.
	delivered atomic.Bool
	out       chan outcome // buffered(1)
}

// deliver answers the call once; later deliveries are dropped.
func (c *call) deliver(o outcome) {
	if c.delivered.CompareAndSwap(false, true) {
		c.out <- o
	}
}

// outcome is what a call resolves to.
type outcome struct {
	done     cluster.Done
	node     int
	attempts int
	err      error
}

// SubmitRequest describes one inference request entering the daemon.
type SubmitRequest struct {
	PromptTokens int              `json:"prompt_tokens"`
	OutputTokens int              `json:"output_tokens"`
	Class        cluster.SLAClass `json:"class"`
	Prefilled    bool             `json:"prefilled"`
}

// SubmitResult is a completed request's answer: the sim's per-request
// completion record (virtual times) plus shell-side accounting.
type SubmitResult struct {
	ID       uint64
	Node     int
	Attempts int
	Done     cluster.Done
	Wall     time.Duration // wall-clock time inside the daemon
}

// chaosCfg is a staged fault-injection arming.
type chaosCfg struct {
	seed             uint64
	transient, lapse float64
}

// nodeCtl is the staged control state for one node. The control plane writes
// it under the service lock and bumps version; the node's own goroutine
// applies it between batches, so reconfiguration never races a running sim.
type nodeCtl struct {
	version  uint64
	chaos    chaosCfg
	chaosSet bool
	policy   tier.Policy
}

// node is one serving node: a deterministic sim owned by exactly one worker
// goroutine. inflight and applied are touched only by that goroutine (and by
// startup/rebuild code running on it), so they need no lock.
type node struct {
	idx      int
	sim      *cluster.Sim
	mem      *tier.Manager
	arm      func(uint64, float64, float64)
	inflight map[uint64]*call
	applied  uint64 // last applied control version
	attempts int    // attempts spent on the current batch
}

// service hosts the nodes behind the admission queue. It is the layer the
// HTTP handlers talk to, and the one the daemon drains on shutdown.
type service struct {
	cfg   Config
	reg   *metrics.Registry
	queue *queue
	nodes []*node

	mu       sync.Mutex
	jitter   *dist.RNG // guarded by mu
	controls []nodeCtl // guarded by mu

	wg       sync.WaitGroup
	draining atomic.Bool
	nextID   atomic.Uint64
	// runCtx is the workers' lifetime context: created once at startup,
	// cancelled once by Shutdown. It gates whole sim batches, not requests —
	// per-request deadlines live in the queue's admission layer — so storing
	// it does not detach any request from its caller.
	//mrm:allow-ctxflow process-lifetime context for the worker goroutines, cancelled by Shutdown; request deadlines are enforced at admission
	runCtx    context.Context
	cancelRun context.CancelFunc
}

// newService builds the nodes and starts one worker goroutine per node.
func newService(cfg Config, reg *metrics.Registry) (*service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &service{
		cfg:      cfg,
		reg:      reg,
		queue:    newQueue(cfg.QueueDepth),
		jitter:   dist.NewRNG(cfg.Seed),
		controls: make([]nodeCtl, cfg.Nodes),
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	for i := 0; i < cfg.Nodes; i++ {
		nd, err := cfg.Build(i)
		if err != nil {
			return nil, fmt.Errorf("server: building node %d: %w", i, err)
		}
		if nd.Sim == nil {
			return nil, fmt.Errorf("server: builder returned node %d without a sim", i)
		}
		n := &node{idx: i, sim: nd.Sim, mem: nd.Mem, arm: nd.Arm, inflight: make(map[uint64]*call)}
		n.sim.SetOnDone(s.nodeDone(n))
		s.nodes = append(s.nodes, n)
	}
	for _, n := range s.nodes {
		s.wg.Add(1)
		go s.nodeLoop(n)
	}
	return s, nil
}

// Submit admits one request and blocks until it completes, fails, or ctx
// expires. Backpressure is explicit: a full queue or a draining daemon
// rejects immediately (ErrQueueFull / ErrDraining) rather than buffering.
func (s *service) Submit(ctx context.Context, req SubmitRequest) (SubmitResult, error) {
	s.reg.Counter("mrmd_requests_total").Inc()
	if req.PromptTokens <= 0 || req.OutputTokens <= 0 {
		return SubmitResult{}, fmt.Errorf("server: need positive prompt and output tokens")
	}
	if s.draining.Load() {
		s.reg.Counter("mrmd_rejected_draining_total").Inc()
		return SubmitResult{}, ErrDraining
	}
	id := s.nextID.Add(1)
	c := &call{
		id: id,
		req: cluster.Request{
			ID:           id,
			PromptTokens: req.PromptTokens,
			OutputTokens: req.OutputTokens,
			Class:        req.Class,
			Prefilled:    req.Prefilled,
		},
		enqueued: time.Now(),
		out:      make(chan outcome, 1),
	}
	if err := s.queue.Enqueue(c); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.reg.Counter("mrmd_rejected_full_total").Inc()
		} else {
			s.reg.Counter("mrmd_rejected_draining_total").Inc()
		}
		return SubmitResult{}, err
	}
	s.reg.Gauge("mrmd_queue_depth").Set(float64(s.queue.Len()))
	select {
	case out := <-c.out:
		wall := time.Since(c.enqueued)
		s.reg.Histogram("mrmd_wall_seconds").Observe(wall.Seconds())
		if out.err != nil {
			return SubmitResult{}, out.err
		}
		return SubmitResult{ID: id, Node: out.node, Attempts: out.attempts, Done: out.done, Wall: wall}, nil
	case <-ctx.Done():
		c.canceled.Store(true)
		s.reg.Counter("mrmd_timeouts_total").Inc()
		stage := "queued"
		if c.fed.Load() {
			stage = "running"
		}
		return SubmitResult{}, &TimeoutError{Stage: stage, Elapsed: time.Since(c.enqueued)}
	}
}

// nodeDone builds the per-request completion observer registered on a node's
// sim. It runs synchronously on the node goroutine while the sim is inside
// Run, so it may touch node-owned state without a lock.
func (s *service) nodeDone(n *node) func(cluster.Done) {
	return func(d cluster.Done) {
		c, ok := n.inflight[d.ID]
		if !ok {
			return
		}
		delete(n.inflight, d.ID)
		s.reg.Gauge("mrmd_inflight").Add(-1)
		if d.Truncated {
			s.reg.Counter("mrmd_truncated_total").Inc()
		} else {
			s.reg.Counter("mrmd_completed_total").Inc()
		}
		s.reg.Histogram("mrmd_ttft_virtual_seconds").Observe(d.TTFT.Seconds())
		if d.TBT > 0 {
			s.reg.Histogram("mrmd_tbt_virtual_seconds").Observe(d.TBT.Seconds())
		}
		c.deliver(outcome{done: d, node: n.idx, attempts: n.attempts})
	}
}

// nodeLoop is a node's worker: dequeue a batch, apply staged controls, run
// it. Exits when the queue is closed and drained.
func (s *service) nodeLoop(n *node) {
	defer s.wg.Done()
	for {
		batch := s.queue.Dequeue(s.cfg.MaxBatch)
		s.reg.Gauge("mrmd_queue_depth").Set(float64(s.queue.Len()))
		if batch == nil {
			return
		}
		s.applyControls(n)
		s.runBatch(n, batch)
	}
}

// runBatch feeds one batch to the node's sim on the virtual clock and runs
// it to completion, retrying transient faults with jittered backoff. A
// panic anywhere inside the sim is contained to this node: its calls fail,
// the node rebuilds, the daemon lives.
func (s *service) runBatch(n *node, batch []*call) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter("mrmd_panics_total").Inc()
			s.failNode(n, fmt.Errorf("server: node %d panicked: %v", n.idx, r))
		}
	}()
	// Ingest: stamp arrivals with the node's virtual clock. The sim never
	// sees wall time; whatever instant the shell admitted a request at, on
	// the virtual timeline it arrives "now".
	now := n.sim.Clock()
	reqs := make([]cluster.Request, 0, len(batch))
	for _, c := range batch {
		if c.canceled.Load() {
			continue // client gave up while queued; already answered 504
		}
		c.fed.Store(true)
		r := c.req
		r.Arrival = now
		n.inflight[r.ID] = c
		reqs = append(reqs, r)
	}
	if len(reqs) == 0 {
		return
	}
	s.reg.Gauge("mrmd_inflight").Add(float64(len(reqs)))
	n.attempts = 1
	// RunSegment, not RunContext: the daemon answers calls through OnDone
	// and never reads the Result that RunContext's Harvest would build.
	err := n.sim.RunSegment(s.runCtx, reqs, -1, false)
	for err != nil {
		if s.runCtx.Err() != nil {
			// Drain deadline (or daemon teardown): answer what's left and
			// exit without rebuilding — the daemon is going away.
			s.failCalls(n, fmt.Errorf("server: abandoned at drain deadline: %w", err))
			return
		}
		if !Retryable(err) || n.attempts >= s.cfg.Retry.MaxAttempts {
			s.failNode(n, err)
			return
		}
		s.reg.Counter("mrmd_retries_total").Inc()
		// Jittered sleep, cut short if the drain deadline fires meanwhile.
		select {
		case <-time.After(s.backoff(n.attempts)):
		case <-s.runCtx.Done():
		}
		n.attempts++
		// Continue the interrupted batch: the sim holds its unfinished
		// requests internally, so a segment with no new arrivals drains them.
		err = n.sim.RunSegment(s.runCtx, nil, -1, false)
	}
}

// backoff draws the jittered sleep before retry attempt (1-based).
func (s *service) backoff(attempt int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Retry.Backoff(attempt, s.jitter)
}

// failCalls answers every call fed to the node's sim with err (in admission
// order) and clears the inflight set.
func (s *service) failCalls(n *node, err error) {
	ids := make([]uint64, 0, len(n.inflight))
	for id := range n.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c := n.inflight[id]
		delete(n.inflight, id)
		s.reg.Gauge("mrmd_inflight").Add(-1)
		c.deliver(outcome{err: err, node: n.idx, attempts: n.attempts})
	}
}

// failNode handles a permanent node failure: the node is rebuilt from the
// builder so the poisoned sim state cannot leak into later requests, and
// every in-flight call on it fails with ErrNodeFailed. The rebuild and its
// counters come first, so a client that sees the failure also sees the
// node already replaced in /metrics.
func (s *service) failNode(n *node, cause error) {
	s.reg.Counter("mrmd_node_failures_total").Inc()
	s.rebuildNode(n)
	// The cause is flattened with %v on purpose: a node failure is permanent
	// (the retry budget is spent, the node is rebuilt), and wrapping a
	// transient cause like fault.ErrUncorrectable with %w would make
	// Retryable resurrect it. TestFailNodeErrorNotRetryable pins this.
	//mrm:allow-errcmp flattening is deliberate: ErrNodeFailed is permanent; %w on the cause would make Retryable match it again
	s.failCalls(n, fmt.Errorf("%w (node %d): %v", ErrNodeFailed, n.idx, cause))
}

// rebuildNode replaces the node's sim with a fresh one from the builder.
func (s *service) rebuildNode(n *node) {
	nd, err := s.cfg.Build(n.idx)
	if err != nil || nd.Sim == nil {
		// Can't rebuild: keep the old sim — requests will keep failing and
		// each failure retries the rebuild. Degraded beats dead.
		s.reg.Counter("mrmd_rebuild_failures_total").Inc()
		return
	}
	n.sim, n.mem, n.arm = nd.Sim, nd.Mem, nd.Arm
	n.sim.SetOnDone(s.nodeDone(n))
	s.reg.Counter("mrmd_node_rebuilds_total").Inc()
	// Re-apply staged controls (chaos arming, tiering policy) so the fresh
	// node matches the fleet's configured posture.
	n.applied = 0
	s.applyControls(n)
}

// applyControls applies any staged control-plane changes to the node. Runs
// only on the node's goroutine, between batches.
func (s *service) applyControls(n *node) {
	s.mu.Lock()
	ctl := s.controls[n.idx]
	s.mu.Unlock()
	if ctl.version == n.applied {
		return
	}
	if ctl.chaosSet && n.arm != nil {
		n.arm(ctl.chaos.seed, ctl.chaos.transient, ctl.chaos.lapse)
	}
	if ctl.policy != nil && n.mem != nil {
		if _, err := n.mem.SetPolicy(ctl.policy); err != nil {
			s.reg.Counter("mrmd_reconfig_failures_total").Inc()
		}
	}
	n.applied = ctl.version
}

// ArmChaos stages deterministic seeded fault injection on one node (or all,
// with node < 0). Each node derives an independent stream from the given
// seed, and the arming lands before the node's next batch — the control
// plane never touches a sim mid-run. Rates of zero disarm.
func (s *service) ArmChaos(nodeIdx int, seed uint64, transient, lapse float64) (int, error) {
	if nodeIdx >= len(s.nodes) {
		return 0, fmt.Errorf("server: chaos names bad node %d (have %d)", nodeIdx, len(s.nodes))
	}
	if transient < 0 || lapse < 0 || transient > 1 || lapse > 1 {
		return 0, fmt.Errorf("server: chaos rates must be in [0,1]")
	}
	if seed == 0 {
		seed = s.cfg.Seed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	count := 0
	for i := range s.controls {
		if nodeIdx >= 0 && i != nodeIdx {
			continue
		}
		s.controls[i].chaos = chaosCfg{seed: fault.DeriveSeed(seed, i), transient: transient, lapse: lapse}
		s.controls[i].chaosSet = true
		s.controls[i].version++
		count++
	}
	s.reg.Counter("mrmd_chaos_armed_total").Add(int64(count))
	return count, nil
}

// SetTiering stages a live placement-policy swap on every node (applied
// before each node's next batch; already-placed objects stay put).
func (s *service) SetTiering(policy string) error {
	var p tier.Policy
	switch policy {
	case "static":
		p = tier.StaticPolicy{}
	case "retention-aware":
		p = tier.RetentionAwarePolicy{}
	default:
		return fmt.Errorf("server: unknown tiering policy %q (want static or retention-aware)", policy)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.controls {
		s.controls[i].policy = p
		s.controls[i].version++
	}
	return nil
}

// Draining reports whether the daemon has stopped admitting.
func (s *service) Draining() bool { return s.draining.Load() }

// QueueDepth reports the admission queue's current depth.
func (s *service) QueueDepth() int { return s.queue.Len() }

// RetryAfter estimates (in whole seconds, minimum 1) how long a rejected
// client should wait before retrying, scaled by how backed up the queue is.
func (s *service) RetryAfter() int {
	secs := 1 + s.queue.Len()/s.cfg.MaxBatch
	if secs > 30 {
		secs = 30
	}
	return secs
}

// Shutdown drains the daemon: stop admitting (new submissions see
// ErrDraining), let the workers run every already-admitted request to
// completion, and return nil on a clean drain. If ctx expires first, the
// in-flight sim batches are canceled, their calls answered with a drain
// error, and a wrapped ctx.Err() is returned. Idempotent.
func (s *service) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelRun()
		return nil
	case <-ctx.Done():
		s.cancelRun()
		<-done
		return fmt.Errorf("server: drain deadline exceeded: %w", ctx.Err())
	}
}
