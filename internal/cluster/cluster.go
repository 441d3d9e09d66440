// Package cluster simulates a foundation-model serving node: requests with
// SLA classes arrive (Poisson), get admitted into a continuous batch, run a
// prefill, then decode token by token. Every byte the workload moves flows
// through a tier.Manager, so placement policy (static vs retention-aware,
// HBM-only vs HBM+MRM) changes both the step time (per-tier bandwidth) and
// the energy bill — the quantities experiment E7 compares.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"mrm/internal/core"
	"mrm/internal/dist"
	"mrm/internal/eventq"
	"mrm/internal/fault"
	"mrm/internal/llm"
	"mrm/internal/metrics"
	"mrm/internal/sweep"
	"mrm/internal/tier"
	"mrm/internal/units"
)

// SLAClass is a request's service class (§4: diversified requirements).
type SLAClass int

// SLA classes.
const (
	Interactive SLAClass = iota // user-in-the-loop: tight time-between-tokens
	Throughput                  // batch-friendly
	BestEffort                  // background jobs (meeting recap)
)

// String names the class.
func (c SLAClass) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Throughput:
		return "throughput"
	case BestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("SLAClass(%d)", int(c))
	}
}

// Request is one inference query.
type Request struct {
	ID           uint64
	Arrival      time.Duration
	PromptTokens int
	OutputTokens int
	Class        SLAClass
	// Prefilled marks a request whose KV cache was computed elsewhere
	// (phase-split serving à la Splitwise [37]): admission writes the
	// transferred KV pages but charges no prefill compute.
	Prefilled bool
}

// Generator produces a request stream from a workload description.
type Generator struct {
	Workload llm.Workload
	// RatePerSec is the mean arrival rate (Poisson process).
	RatePerSec float64
	// Mix is the probability of each class (Interactive, Throughput,
	// BestEffort); it must sum to ~1.
	Mix [3]float64
	// MaxContext clamps prompt+output.
	MaxContext int
}

// GenBlock is the number of requests drawn from one derived RNG stream.
// Generate seeds an independent generator per block (splitmix derivation
// from a base seed), so blocks can be sampled in any order — or on any
// worker — and still produce the same stream. Only the arrival clock is a
// running prefix across blocks, and that is a pure sum of per-block
// inter-arrival gaps.
const GenBlock = 64

// Generate returns n requests with increasing arrival times. The rng seeds
// the stream: its first draw becomes the base seed from which every
// GenBlock-sized block of requests derives its own generator, keeping the
// stream reproducible even if block sampling is parallelized. Generate is
// Stream drained into a slice; the two produce byte-identical sequences.
func (g Generator) Generate(rng *dist.RNG, n int) ([]Request, error) {
	st, err := g.Stream(rng, n)
	if err != nil {
		return nil, err
	}
	reqs := make([]Request, 0, n)
	for {
		req, ok := st.Next()
		if !ok {
			return reqs, nil
		}
		reqs = append(reqs, req)
	}
}

// Stream returns a block-streaming iterator over the same request sequence
// Generate materializes: Next yields Generate's output element by element
// without ever holding more than the current GenBlock's derived generator.
// The rng's first draw becomes the base seed, exactly as in Generate, so a
// drained Stream and a Generate call on equal rng states are byte-identical
// — the pinned-stream test holds for both. Reset rewinds to the first
// request and replays the identical sequence (block seeds re-derive from the
// captured base), which is what lets the fleet replay a day-long stream once
// per SLA class without materializing it.
func (g Generator) Stream(rng *dist.RNG, n int) (*Stream, error) {
	if g.RatePerSec <= 0 || n <= 0 {
		return nil, fmt.Errorf("cluster: need positive rate and count")
	}
	sum := g.Mix[0] + g.Mix[1] + g.Mix[2]
	if sum < 0.99 || sum > 1.01 {
		return nil, fmt.Errorf("cluster: class mix sums to %v", sum)
	}
	if g.MaxContext <= 1 {
		return nil, fmt.Errorf("cluster: MaxContext too small")
	}
	return &Stream{
		g:      g,
		inter:  dist.Exponential{Rate: g.RatePerSec},
		prompt: dist.Lognormal{Median: g.Workload.PromptMedian, Sigma: g.Workload.PromptSigma},
		output: dist.Lognormal{Median: g.Workload.OutputMedian, Sigma: g.Workload.OutputSigma},
		base:   rng.Uint64(),
		n:      n,
		loaded: -1,
	}, nil
}

// Stream iterates a Generator's request sequence block by block; see
// Generator.Stream. The zero value is not useful — construct via Stream.
//
// Next is the serial iterator; GenerateBlock is the same sequence exposed
// block by block for parallel synthesis (each block is a pure function of
// the captured base seed and the block index), and SeekBlock repositions the
// serial iterator at a block boundary. Next is implemented on top of
// GenerateBlock, so the two can never drift.
type Stream struct {
	g      Generator
	inter  dist.Exponential
	prompt dist.Lognormal
	output dist.Lognormal
	base   uint64
	n      int
	// Serial-iterator state: the current block's requests (arrivals relative
	// to the block start), the absolute clock at that block's start, and the
	// block's total clock advance.
	next      int
	loaded    int // block index held in buf; -1 = none
	buf       []Request
	blockBase time.Duration
	bufAdv    time.Duration
}

// Len returns the total number of requests the stream yields.
func (s *Stream) Len() int { return s.n }

// Blocks returns the number of GenBlock-sized blocks in the stream (the last
// may be short).
func (s *Stream) Blocks() int { return (s.n + GenBlock - 1) / GenBlock }

// Reset rewinds the stream to its first request; the replayed sequence is
// identical (block generators re-derive from the captured base seed, and the
// arrival clock restarts its prefix sum).
func (s *Stream) Reset() {
	s.next = 0
	s.loaded = -1
	s.blockBase = 0
	s.bufAdv = 0
}

// GenerateBlock appends block b's requests to dst and returns the extended
// slice plus the block's total arrival-clock advance. Arrivals are relative
// to the block's start: the absolute stream is recovered by adding the sum
// of all earlier blocks' advances, and because arrivals are integer
// (time.Duration) sums of per-request gaps, that regrouped sum is
// bit-identical to the serial prefix sum Next maintains.
//
// The block is a pure function of (captured base seed, b): it touches no
// iterator state, so distinct blocks may be generated concurrently from one
// Stream — that is what lets RunStream shard request synthesis across the
// sweep pool.
func (s *Stream) GenerateBlock(b int, dst []Request) ([]Request, time.Duration) {
	start := b * GenBlock
	count := s.n - start
	if count > GenBlock {
		count = GenBlock
	}
	rng := dist.NewRNG(sweep.DeriveSeed(s.base, b))
	var clock time.Duration
	for k := 0; k < count; k++ {
		clock += time.Duration(s.inter.Sample(rng) * float64(time.Second))
		p := int(dist.Clamp(s.prompt.Sample(rng), 1, float64(s.g.MaxContext-1)))
		maxOut := s.g.MaxContext - p
		o := int(dist.Clamp(s.output.Sample(rng), 1, float64(maxOut)))
		u := rng.Float64()
		var cl SLAClass
		switch {
		case u < s.g.Mix[0]:
			cl = Interactive
		case u < s.g.Mix[0]+s.g.Mix[1]:
			cl = Throughput
		default:
			cl = BestEffort
		}
		dst = append(dst, Request{
			ID: uint64(start + k), Arrival: clock,
			PromptTokens: p, OutputTokens: o, Class: cl,
		})
	}
	return dst, clock
}

// SeekBlock positions the stream at the start of block b (request b·GenBlock):
// the subsequent Next calls yield exactly the tail a full drain would have
// yielded from that point, absolute arrivals included. Only the arrival
// clock carries history across blocks, so seeking re-derives the first b
// block advances (O(b) sampling, O(GenBlock) memory) without materializing
// any requests for the caller.
func (s *Stream) SeekBlock(b int) error {
	if b < 0 || b > s.Blocks() {
		return fmt.Errorf("cluster: SeekBlock(%d) outside [0, %d]", b, s.Blocks())
	}
	var base time.Duration
	scratch := s.buf
	for i := 0; i < b; i++ {
		var adv time.Duration
		scratch, adv = s.GenerateBlock(i, scratch[:0])
		base += adv
	}
	s.buf = scratch[:0]
	s.next = b * GenBlock
	s.loaded = -1
	s.blockBase = base
	s.bufAdv = 0
	return nil
}

// Next returns the stream's next request, or ok=false once n requests have
// been yielded. Arrival times are non-decreasing across the whole stream.
func (s *Stream) Next() (Request, bool) {
	if s.next >= s.n {
		return Request{}, false
	}
	b := s.next / GenBlock
	if s.loaded != b {
		if s.loaded == b-1 {
			// Walking off the previous block: fold its advance into the
			// absolute clock. (After Reset/SeekBlock there is no previous
			// block; blockBase was set directly.)
			s.blockBase += s.bufAdv
		}
		s.buf, s.bufAdv = s.GenerateBlock(b, s.buf[:0])
		s.loaded = b
	}
	req := s.buf[s.next-b*GenBlock]
	req.Arrival += s.blockBase
	s.next++
	return req, true
}

// Config assembles a serving simulation.
type Config struct {
	Model llm.ModelConfig
	Acc   llm.Accelerator
	// Memory is the tiered memory; the simulator places weights once and KV
	// pages continuously.
	Memory *tier.Manager
	// PageTokens is the KV page size in vectors (PagedAttention geometry).
	PageTokens int
	// MaxBatch bounds the continuous batch.
	MaxBatch int
	// KVLifetime is the lifetime hint for KV pages (how long a context is
	// expected to stay useful).
	KVLifetime time.Duration
	// ScratchTier is the tier index holding partial KV pages and activations
	// (the HBM tier).
	ScratchTier int
	// PrefillChunk, when positive, enables SARATHI-style chunked prefill
	// [3]: prompt ingestion proceeds PrefillChunk tokens per decode step,
	// piggybacked on the running batch, instead of a monolithic prefill
	// that stalls every running decode.
	PrefillChunk int
	// IdleTick opts into advancing memory time through idle windows
	// (segmented at every scrub/retention deadline, so no refresh or expiry
	// fires late). The default preserves the original semantics — idle gaps
	// jump the request clock without aging the devices — which the recorded
	// experiment goldens pin.
	IdleTick bool
	// OnDone, when set, streams a completion record for every request the
	// sim retires (completed or truncated), in retirement order. The record
	// is a pure function of sim state, so a nil OnDone leaves the sim
	// byte-identical; a serving shell hooks it to deliver per-request
	// TTFT/TBT results as they happen instead of waiting for Result's
	// aggregate histograms. The callback runs synchronously on the sim's
	// goroutine and must not call back into the sim.
	OnDone func(Done)
}

// Done is one request's completion record, streamed to Config.OnDone the
// instant the sim retires the request. Times are virtual (simulated).
type Done struct {
	ID     uint64
	Tokens int // tokens generated (0 if truncated before the first token)
	// TTFT is the first-token latency (prefill completion for monolithic
	// prefill, first generated token under chunked prefill) — the same
	// quantity the sim's TTFT histogram observes.
	TTFT time.Duration
	// TBT is the mean time between tokens (0 with fewer than two tokens).
	TBT time.Duration
	// At is the virtual completion time.
	At time.Duration
	// Truncated marks a request cut short by memory pressure rather than
	// run to its output length.
	Truncated bool
}

type running struct {
	req         Request
	ctx         int // current context length in tokens
	generated   int
	prefillLeft int // prompt tokens not yet ingested (chunked prefill)
	chunk       int // this step's prefill chunk (scratch, valid within decodeStep)
	pages       []tier.ObjectID
	// plan caches the resolved read path of pages: the per-step KV read
	// replays it instead of re-resolving every page id. Kept in lockstep
	// with pages — appended on flush, truncated on KV drop, reset on reuse.
	plan     tier.ReadPlan
	partial  int // tokens accumulated in the scratch partial page
	firstTok time.Duration
	lastTok  time.Duration
	// faulted marks that this step's KV read hit an uncorrectable error: the
	// request emits no token this step and re-ingests the lost suffix.
	faulted bool
	// retired marks a request removed from the batch this step (completed or
	// truncated); decodeStep filters survivors with it after running the
	// step's page-write schedule.
	retired bool
}

// FaultStats accounts the graceful-degradation work a node performed: the
// cost of the paper's "soft state can be dropped and recomputed" bargain.
type FaultStats struct {
	// KVPagesLost counts KV page objects dropped after uncorrectable reads;
	// KVTokensRecomputed is the tokens rolled back and re-ingested, and
	// RecomputeFLOPs the extra prefill compute that took.
	KVPagesLost        int64
	KVTokensRecomputed int64
	RecomputeFLOPs     float64
	// WeightsReseats counts weight re-placements from the durable upstream
	// copy; ReseatStall is clock spent in isolation backoff plus rewrites.
	WeightsReseats int64
	ReseatStall    time.Duration
}

// Add returns the field-wise sum (fleet aggregation).
func (f FaultStats) Add(o FaultStats) FaultStats {
	f.KVPagesLost += o.KVPagesLost
	f.KVTokensRecomputed += o.KVTokensRecomputed
	f.RecomputeFLOPs += o.RecomputeFLOPs
	f.WeightsReseats += o.WeightsReseats
	f.ReseatStall += o.ReseatStall
	return f
}

// Result summarizes a simulation.
type Result struct {
	SimTime         time.Duration
	Completed       int
	Truncated       int // requests cut short by memory pressure
	TokensOut       int64
	TTFT            metrics.Snapshot // seconds
	TBT             metrics.Snapshot // seconds, time between tokens
	Energy          units.Energy
	TokensPerSec    float64
	TokensPerJoule  float64
	PerTierReads    map[string]units.Bytes
	DecodeSteps     int64
	MemoryBoundFrac float64
	Faults          FaultStats
	// WastedTokens counts tokens generated for requests the node did not
	// finish (fail-stop): work a requeue must redo elsewhere.
	WastedTokens int64
}

// Sim runs a serving workload to completion.
type Sim struct {
	cfg      Config
	eng      *llm.Engine
	weights  tier.ObjectID
	wTier    int
	idleTick bool
	cal      eventq.Calendar
	wPlan    tier.ReadPlan // resolved weights read; rebuilt on reseat

	clock   time.Duration
	pending []Request
	batch   []*running
	// feeding marks a segmented run (RunSegment more=true): further requests
	// will be fed, so the engines park when pending drains rather than idle
	// or finish — the next decision depends on the head they don't have yet.
	feeding bool

	ttft *metrics.Histogram
	tbt  *metrics.Histogram

	onDone func(Done)

	tokensOut    int64
	completed    int
	truncated    int
	decodeSteps  int64
	memBoundHits int64
	perTierReads []units.Bytes // indexed by tier
	readTiers    []bool        // tiers that ever appeared in a step's read plan
	faults       FaultStats
	wasted       int64

	// Scratch state reused across decode steps (the per-step hot path runs
	// tens of thousands of times per simulation; these cut its allocations
	// to zero in steady state).
	decoding   []*running
	prefilling []*running
	ctxs       []int
	perTier    []units.Bytes // indexed by tier
	freeList   []*running    // finished running structs, pages capacity intact
	ops        []stepOp      // per-step page-write/finish schedule
	metaBuf    []tier.Meta   // KV page metas (identical entries, filled once)
	idBuf      []tier.ObjectID
	latBuf     []time.Duration
	tierBuf    []int
}

// stepOp is one entry in a decode step's ordered schedule of page writes and
// request finishes. Writes between two finishes coalesce into one batched
// put; a finish is a barrier because deleting its request's pages frees
// memory that changes where later writes in the same step may land.
type stepOp struct {
	r      *running
	pages  int  // KV pages to write (flush ops)
	decode bool // decode-path flush: reset partial once its page lands
	fin    bool // finish op: release pages and retire the request
}

// NewSim builds a simulator and places the model weights.
func NewSim(cfg Config) (*Sim, error) {
	if cfg.Memory == nil {
		return nil, fmt.Errorf("cluster: no memory manager")
	}
	if cfg.PageTokens <= 0 || cfg.MaxBatch <= 0 {
		return nil, fmt.Errorf("cluster: need positive PageTokens and MaxBatch")
	}
	if cfg.KVLifetime <= 0 {
		cfg.KVLifetime = 30 * time.Minute
	}
	eng, err := llm.NewEngine(cfg.Model, cfg.Acc)
	if err != nil {
		return nil, err
	}
	nTiers := len(cfg.Memory.Tiers())
	s := &Sim{
		cfg:          cfg,
		eng:          eng,
		idleTick:     cfg.IdleTick,
		onDone:       cfg.OnDone,
		ttft:         metrics.NewHistogram(1e-6, 1.05),
		tbt:          metrics.NewHistogram(1e-6, 1.05),
		perTierReads: make([]units.Bytes, nTiers),
		readTiers:    make([]bool, nTiers),
		perTier:      make([]units.Bytes, nTiers),
	}
	// Weights: read-hot, effectively immortal (refreshed if on MRM).
	id, _, err := cfg.Memory.Put(tier.Meta{
		Kind:     core.KindWeights,
		Size:     cfg.Model.WeightBytes(),
		Lifetime: 365 * 24 * time.Hour,
		ReadHot:  true,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: placing weights: %w", err)
	}
	s.weights = id
	s.wTier, err = cfg.Memory.TierOf(id)
	if err != nil {
		return nil, err
	}
	// Nothing on the planned read path consumes Result.RawBER, so the
	// worst-BER scan is wasted work; an armed ECC budget forces the scan
	// regardless, keeping organic fault decisions identical.
	for _, b := range cfg.Memory.Backends() {
		if bt, ok := b.(tier.BERTunable); ok {
			bt.SetBERTracking(false)
		}
	}
	if err := cfg.Memory.PlanAppend(&s.wPlan, id); err != nil {
		return nil, err
	}
	return s, nil
}

// WeightsTier reports where the weights landed.
func (s *Sim) WeightsTier() int { return s.wTier }

// Clock returns the sim's current virtual time. An ingest layer feeding the
// sim live (the serving daemon) stamps new requests' arrivals with it, so
// arrivals are expressed on the virtual timeline and TTFT/TBT stay pure
// simulated quantities.
func (s *Sim) Clock() time.Duration { return s.clock }

// SetOnDone installs (or, with nil, removes) the per-request completion
// callback after construction; see Config.OnDone. Must not be called while
// a Run is in progress.
func (s *Sim) SetOnDone(fn func(Done)) { s.onDone = fn }

// Run executes the request stream to completion and returns the result.
func (s *Sim) Run(reqs []Request) (Result, error) {
	res, _, err := s.RunUntil(reqs, -1)
	return res, err
}

// RunContext is Run with a cancellation context: the engines poll ctx
// between events and abort with a wrapped ctx.Err() when it fires. The sim's
// state stays consistent on cancellation — requests already retired have
// been reported, the rest remain pending — so a shell enforcing a drain
// deadline can bound a batch without corrupting the node. A background (or
// nil) context is byte-identical to Run.
func (s *Sim) RunContext(ctx context.Context, reqs []Request) (Result, error) {
	res, _, err := s.RunUntilContext(ctx, reqs, -1)
	return res, err
}

// RunUntil executes the request stream until it drains or simulated time
// reaches stopAt (fail-stop; stopAt < 0 runs to completion). On a fail-stop
// it returns, besides the result so far, every request the node did not
// finish — in-flight requests come back as fresh requests (their KV and any
// remote-prefill credit die with the node) and their already-generated tokens
// are counted as WastedTokens. The fleet requeues them onto survivors.
func (s *Sim) RunUntil(reqs []Request, stopAt time.Duration) (Result, []Request, error) {
	return s.RunUntilContext(context.Background(), reqs, stopAt)
}

// RunUntilContext is RunUntil with a cancellation context; see RunContext.
// It is one RunSegment (the whole stream as a single final segment) followed
// by a Harvest.
func (s *Sim) RunUntilContext(ctx context.Context, reqs []Request, stopAt time.Duration) (Result, []Request, error) {
	if err := s.RunSegment(ctx, reqs, stopAt, false); err != nil {
		return Result{}, nil, err
	}
	res, unfinished := s.Harvest(stopAt)
	return res, unfinished, nil
}

// RunSegment ingests one segment of the request stream and advances the sim
// exactly as far as the fed prefix permits. Segments must arrive in
// admission order — class priority, then arrival — across calls: every
// request in a later segment sorts at or after every request in an earlier
// one. more promises at least one further segment; the engine then parks the
// instant its pending queue drains instead of idling or declaring the run
// complete, because whether to admit, idle-jump, or keep decoding depends on
// the head request it has not been fed yet. The engines only ever consult
// the head of the sorted pending queue, so a sequence of RunSegment calls
// whose concatenated segments equal one request slice leaves the sim in
// exactly the state a single RunUntilContext over that slice reaches —
// bit-identical results, O(segment) peak memory. The final segment is
// flagged more=false and the run is then closed out with Harvest.
func (s *Sim) RunSegment(ctx context.Context, reqs []Request, stopAt time.Duration, more bool) error {
	s.pending = append(s.pending, reqs...)
	// Admission order is class priority, then arrival — one stable sort per
	// feed; requests are only ever consumed from the head after this point.
	// Generated streams arrive time-ordered, but stability makes no further
	// assumption: equal-class requests keep their input order, which for a
	// time-sorted input is arrival order. Segment feeds and mostly-drained
	// queues are usually already in admission order, so an O(n) sortedness
	// check skips the stable sort (which would be the identity permutation).
	if !admissionOrdered(s.pending) {
		sort.SliceStable(s.pending, func(i, j int) bool {
			if s.pending[i].Class != s.pending[j].Class {
				return s.pending[i].Class < s.pending[j].Class
			}
			return s.pending[i].Arrival < s.pending[j].Arrival
		})
	}
	s.feeding = more
	if ctx == nil {
		ctx = context.Background()
	}
	return s.runEvents(ctx, stopAt)
}

// Harvest closes out a (possibly segmented) run: for a fail-stopped node
// (stopAt >= 0) with work left, it tears down the in-flight batch — KV pages
// released, generated tokens counted as wasted — and returns the unfinished
// requests for the fleet to requeue, exactly as RunUntil always has.
func (s *Sim) Harvest(stopAt time.Duration) (Result, []Request) {
	var unfinished []Request
	if stopAt >= 0 && (len(s.batch) > 0 || len(s.pending) > 0) {
		for _, r := range s.batch {
			s.wasted += int64(r.generated)
			for _, pid := range r.pages {
				if err := s.cfg.Memory.Delete(pid); err != nil {
					s.cfg.Memory.Forget(pid)
				}
			}
			req := r.req
			req.Prefilled = false
			unfinished = append(unfinished, req)
		}
		s.batch = nil
		unfinished = append(unfinished, s.pending...)
		s.pending = nil
	}
	return s.result(), unfinished
}

// admissionOrdered reports whether reqs are already sorted by (class,
// arrival) — in which case the stable sort is the identity and is skipped.
func admissionOrdered(reqs []Request) bool {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Class != reqs[i-1].Class {
			if reqs[i].Class < reqs[i-1].Class {
				return false
			}
			continue
		}
		if reqs[i].Arrival < reqs[i-1].Arrival {
			return false
		}
	}
	return true
}

// runEvents is the discrete-event engine: each iteration builds the node's
// tiny calendar — the next decode step, the next admissible arrival, and (in
// IdleTick mode) the fail-stop and the next scrub/retention deadline — and
// jumps the clock straight to the earliest event. Ties break deterministically
// by (time, kind, push order); see eventq. Arrival and step events share one
// handler that admits and then decodes: the fail-stop check runs only between
// iterations, so a monolithic prefill that pushes the clock past stopAt still
// runs the decode step it feeds (the experiment goldens pin that).
func (s *Sim) runEvents(ctx context.Context, stopAt time.Duration) error {
	for len(s.pending) > 0 || len(s.batch) > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cluster: run canceled: %w", err)
		}
		if stopAt >= 0 && s.clock >= stopAt {
			break
		}
		s.cal.Reset()
		if len(s.batch) > 0 {
			s.cal.Push(s.clock, eventq.KindStep, 0)
		} else if s.idleTick {
			// Idle window: age memory up to whichever comes first — the
			// fail-stop, a housekeeping deadline, or the next arrival below.
			if stopAt >= 0 {
				s.cal.Push(stopAt, eventq.KindFailStop, 0)
			}
			if at, ok := s.cfg.Memory.NextHousekeeping(); ok {
				if at < s.clock {
					at = s.clock
				}
				s.cal.Push(at, eventq.KindDeadline, 0)
			}
		}
		if len(s.pending) > 0 && len(s.batch) < s.cfg.MaxBatch {
			at := s.pending[0].Arrival
			if at < s.clock {
				at = s.clock
			}
			s.cal.Push(at, eventq.KindArrival, 0)
		}
		ev, ok := s.cal.Pop()
		if !ok {
			break // nothing runnable and nothing scheduled: drained
		}
		switch ev.Kind {
		case eventq.KindFailStop:
			// At stopAt == arrival the fail-stop wins the tie: the idle
			// window ends at stopAt and the node halts before admitting.
			if err := s.tickThrough(ev.At); err != nil {
				return err
			}
		case eventq.KindDeadline:
			if err := s.tickThrough(ev.At); err != nil {
				return err
			}
		default: // KindArrival, KindStep
			if ev.Kind == eventq.KindArrival && s.idleTick {
				if err := s.tickThrough(ev.At); err != nil {
					return err
				}
			}
			if err := s.admit(); err != nil {
				return err
			}
			if s.feeding && len(s.pending) == 0 {
				// Parked: the queue just drained mid-feed, and an unfed
				// request may be admissible before the next decode step (a
				// full queue admits it in this same admit pass, since prefill
				// advances the clock). Stop before decoding; state is
				// untouched, so admission resumes seamlessly — back-to-back
				// admit calls across the feed boundary collapse into exactly
				// one full-queue admit pass.
				return nil
			}
			if len(s.batch) > 0 {
				if err := s.decodeStep(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// tickThrough advances the virtual clock to target, splitting the advance at
// every pending housekeeping deadline so refresh and expiry work fires at the
// same instants a fine-grained driver would perform it — not late, bunched at
// the window's end. Only IdleTick mode routes idle windows through here; busy
// periods age memory via the per-step Ticks in admit and decodeStep.
func (s *Sim) tickThrough(target time.Duration) error {
	for s.clock < target {
		next := target
		if at, ok := s.cfg.Memory.NextHousekeeping(); ok && at > s.clock && at < next {
			next = at
		}
		dt := next - s.clock
		s.clock = next
		if err := s.cfg.Memory.Tick(dt); err != nil {
			return err
		}
	}
	return nil
}

// newRunning returns a request state struct, reusing one retired by finish
// so its pages slice and plan keep their grown capacity across requests.
func (s *Sim) newRunning() *running {
	if n := len(s.freeList); n > 0 {
		r := s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
		pages, plan := r.pages[:0], r.plan
		plan.Reset()
		*r = running{pages: pages, plan: plan}
		return r
	}
	return &running{}
}

// admit pulls arrived requests into the batch (interactive first) and runs
// their prefill. s.pending is kept sorted by (class, arrival) — see Run.
func (s *Sim) admit() error {
	for len(s.pending) > 0 && len(s.batch) < s.cfg.MaxBatch {
		req := s.pending[0]
		if req.Arrival > s.clock && (len(s.batch) > 0 || s.idleTick) {
			// Not here yet: keep decoding, or (IdleTick) let the engine age
			// memory through the gap before admitting.
			break
		}
		if req.Arrival > s.clock {
			// Idle jump: the request clock advances but memory time does not
			// — the original semantics, pinned by the experiment goldens.
			s.clock = req.Arrival
		}
		if s.cfg.PrefillChunk > 0 {
			// Chunked prefill: the request joins the batch immediately and
			// ingests its prompt alongside decode steps.
			s.pending = s.pending[1:]
			r := s.newRunning()
			r.req, r.prefillLeft, r.lastTok = req, req.PromptTokens, s.clock
			s.batch = append(s.batch, r)
			continue
		}
		r := s.newRunning()
		r.req, r.ctx = req, req.PromptTokens
		var prefillTime time.Duration
		if !req.Prefilled {
			cost, err := s.eng.Prefill([]int{req.PromptTokens})
			if err != nil {
				return err
			}
			prefillTime = cost.Time()
		}
		// Write the prompt's KV pages.
		fullPages := req.PromptTokens / s.cfg.PageTokens
		if err := s.flushPages(r, fullPages); err != nil {
			// Memory pressure at admission: release anything partially
			// allocated, then requeue unless nothing is running (in which
			// case the request can never fit: truncate it).
			for _, pid := range r.pages {
				if derr := s.cfg.Memory.Delete(pid); derr != nil {
					s.cfg.Memory.Forget(pid)
				}
			}
			s.freeList = append(s.freeList, r)
			if len(s.batch) == 0 {
				s.pending = s.pending[1:]
				s.truncated++
				if s.onDone != nil {
					s.onDone(Done{ID: req.ID, At: s.clock, Truncated: true})
				}
				continue
			}
			return nil
		}
		r.partial = req.PromptTokens % s.cfg.PageTokens
		s.pending = s.pending[1:]
		s.clock += prefillTime
		if err := s.cfg.Memory.Tick(prefillTime); err != nil {
			return err
		}
		r.firstTok = s.clock
		r.lastTok = s.clock
		s.ttft.Observe((s.clock - req.Arrival).Seconds())
		s.batch = append(s.batch, r)
	}
	return nil
}

// kvMeta describes one KV page; every page a sim writes is identical.
func (s *Sim) kvMeta() tier.Meta {
	return tier.Meta{
		Kind:     core.KindKVCache,
		Size:     s.cfg.Model.KVBytesPerToken() * units.Bytes(s.cfg.PageTokens),
		Lifetime: s.cfg.KVLifetime,
		ReadHot:  true,
	}
}

// flushScratch returns n-length views of the page-write scratch buffers. The
// meta entries are all the same KV page descriptor, so they are filled once
// per growth rather than per call.
func (s *Sim) flushScratch(n int) ([]tier.Meta, []tier.ObjectID, []time.Duration, []int) {
	if len(s.metaBuf) < n {
		s.metaBuf = make([]tier.Meta, n)
		meta := s.kvMeta()
		for i := range s.metaBuf {
			s.metaBuf[i] = meta
		}
		s.idBuf = make([]tier.ObjectID, n)
		s.latBuf = make([]time.Duration, n)
		s.tierBuf = make([]int, n)
	}
	return s.metaBuf[:n], s.idBuf[:n], s.latBuf[:n], s.tierBuf[:n]
}

// flushPages writes n full KV pages for the request into the tiered store as
// one batched put (identical placement, device writes, and fault events to n
// serial Puts). On error the pages stored before the failure are already
// appended to the request, matching the serial path's partial progress.
func (s *Sim) flushPages(r *running, n int) error {
	if n == 0 {
		return nil
	}
	metas, ids, lats, tiers := s.flushScratch(n)
	done, err := s.cfg.Memory.PutBatch(metas, ids, lats, tiers)
	for i := 0; i < done; i++ {
		r.pages = append(r.pages, ids[i])
		if perr := s.cfg.Memory.PlanAppend(&r.plan, ids[i]); perr != nil {
			return perr
		}
	}
	return err
}

// decodeStep generates one token for every decoding request and, under
// chunked prefill, ingests one prompt chunk for every prefilling request,
// fused into the same step.
func (s *Sim) decodeStep() error {
	decoding, prefilling, ctxs := s.decoding[:0], s.prefilling[:0], s.ctxs[:0]
	for _, r := range s.batch {
		if r.prefillLeft > 0 {
			prefilling = append(prefilling, r)
		} else {
			decoding = append(decoding, r)
			ctxs = append(ctxs, r.ctx)
		}
	}
	s.decoding, s.prefilling, s.ctxs = decoding, prefilling, ctxs
	var flops float64
	if len(decoding) > 0 {
		cost, err := s.eng.DecodeStep(ctxs)
		if err != nil {
			return err
		}
		flops = cost.FLOPs
	}
	for _, r := range prefilling {
		chunk := s.cfg.PrefillChunk
		// Without chunked prefill the only prefilling requests are fault
		// rollbacks: re-ingest the whole lost suffix in one step.
		if chunk <= 0 || chunk > r.prefillLeft {
			chunk = r.prefillLeft
		}
		r.chunk = chunk
		// Quadratic attention inside the prompt, sampled at mid-chunk.
		flops += float64(chunk) * s.cfg.Model.FLOPsPerToken(r.ctx+chunk/2)
	}
	// Per-tier read traffic: weights + every full KV page of decoding
	// requests + partial pages and activations from scratch.
	perTier := s.perTier
	for i := range perTier {
		perTier[i] = 0
	}
	kvPerTok := s.cfg.Model.KVBytesPerToken()
	pageBytes := kvPerTok * units.Bytes(s.cfg.PageTokens)
	for _, r := range decoding {
		// One vectored read for the request's whole KV sequence, replaying
		// its resolved plan: identical device reads and fault events to
		// page-by-page Gets, one batched call per same-tier run instead of
		// one per page.
		n, err := s.cfg.Memory.GetPlanned(&r.plan)
		// Per-tier accounting over the plan's runs: O(runs), not O(pages).
		for ri := 0; ri < r.plan.Runs(); ri++ {
			tierIdx, start, end := r.plan.Run(ri)
			if end > n {
				end = n
			}
			if end <= start {
				break
			}
			perTier[tierIdx] += pageBytes * units.Bytes(end-start)
			s.readTiers[tierIdx] = true
		}
		if err != nil {
			// KV pages are soft state: an uncorrectable (or expired) page
			// invalidates the sequence's suffix — pages are read in order —
			// so roll back and recompute instead of failing.
			if errors.Is(err, fault.ErrUncorrectable) || errors.Is(err, core.ErrExpired) {
				s.dropKVFrom(r, n)
			} else {
				return fmt.Errorf("cluster: KV page read: %w", err)
			}
		}
		perTier[s.cfg.ScratchTier] += kvPerTok * units.Bytes(r.partial)
		s.readTiers[s.cfg.ScratchTier] = true
	}
	// Account the weights read against the device; a lost copy is restored
	// from its durable upstream before the step proceeds.
	if err := s.readWeights(); err != nil {
		return err
	}
	perTier[s.wTier] += s.cfg.Model.WeightBytes()
	s.readTiers[s.wTier] = true
	memTime := s.cfg.Memory.ReadTime(perTier)
	stepTime := s.eng.TimeForFLOPs(flops)
	if memTime > stepTime {
		stepTime = memTime
		s.memBoundHits++
	}
	s.decodeSteps++
	for t, b := range perTier {
		s.perTierReads[t] += b
	}
	s.clock += stepTime
	if err := s.cfg.Memory.Tick(stepTime); err != nil {
		return err
	}
	// Bookkeeping phase: advance every request's counters (pure in-memory
	// work) and schedule the step's page writes and request finishes in
	// exactly the order the per-page path performed them. The schedule then
	// runs with consecutive writes coalesced into batched puts.
	ops := s.ops[:0]
	// Prefilling requests advance by their chunk; filled pages flush.
	for _, r := range prefilling {
		r.ctx += r.chunk
		r.prefillLeft -= r.chunk
		r.partial += r.chunk
		if n := r.partial / s.cfg.PageTokens; n > 0 {
			ops = append(ops, stepOp{r: r, pages: n})
			r.partial -= n * s.cfg.PageTokens
		}
	}
	// One token per decoding request; pages flush as they fill.
	for _, r := range decoding {
		if r.faulted {
			// The KV read failed this step: no token was produced. The
			// request stays batched and re-ingests its lost suffix through
			// the prefill path starting next step.
			r.faulted = false
			continue
		}
		r.ctx++
		r.generated++
		r.partial++
		s.tokensOut++
		if r.generated == 1 {
			// The first token's latency is TTFT, not a between-token gap:
			// under chunked prefill it spans the whole prompt ingestion.
			if s.cfg.PrefillChunk > 0 {
				s.ttft.Observe((s.clock - r.req.Arrival).Seconds())
				r.firstTok = s.clock
			}
		} else {
			s.tbt.Observe((s.clock - r.lastTok).Seconds())
		}
		r.lastTok = s.clock
		if r.generated >= r.req.OutputTokens || r.ctx >= s.cfg.Model.MaxContext {
			ops = append(ops, stepOp{r: r, fin: true})
		} else if r.partial >= s.cfg.PageTokens {
			ops = append(ops, stepOp{r: r, pages: 1, decode: true})
		}
	}
	s.ops = ops
	if err := s.runStepOps(ops); err != nil {
		return err
	}
	// Survivors keep batch order: prefilling requests first, then decoding,
	// minus the requests the schedule retired.
	survivors := s.batch[:0]
	for _, r := range prefilling {
		if !r.retired {
			survivors = append(survivors, r)
		}
	}
	for _, r := range decoding {
		if !r.retired {
			survivors = append(survivors, r)
		}
	}
	s.batch = survivors
	return nil
}

// runStepOps executes a decode step's schedule. Runs of consecutive page
// writes issue as one batched put each; a finish op is a barrier (its page
// deletes change where later writes may land, so batching across one would
// perturb allocation). A failed page write truncates only the owning request
// — its pages are released, freeing memory — and the writes after it retry,
// exactly as the per-page path behaved.
func (s *Sim) runStepOps(ops []stepOp) error {
	for len(ops) > 0 {
		if ops[0].fin {
			s.finish(ops[0].r, false)
			ops = ops[1:]
			continue
		}
		end, total := 0, 0
		for end < len(ops) && !ops[end].fin {
			total += ops[end].pages
			end++
		}
		if err := s.flushOps(ops[:end], total); err != nil {
			return err
		}
		ops = ops[end:]
	}
	return nil
}

// flushOps writes the pages of one barrier-free run of flush ops, retrying
// after each truncation until every surviving op's pages are stored.
func (s *Sim) flushOps(ops []stepOp, total int) error {
	for len(ops) > 0 {
		metas, ids, lats, tiers := s.flushScratch(total)
		done, err := s.cfg.Memory.PutBatch(metas, ids, lats, tiers)
		// Hand the stored pages to their owners in schedule order.
		oi, assigned := 0, 0
		for assigned < done {
			op := &ops[oi]
			take := op.pages
			if take > done-assigned {
				take = done - assigned
			}
			for j := 0; j < take; j++ {
				op.r.pages = append(op.r.pages, ids[assigned+j])
				if perr := s.cfg.Memory.PlanAppend(&op.r.plan, ids[assigned+j]); perr != nil {
					return perr
				}
			}
			op.pages -= take
			assigned += take
			if op.pages == 0 {
				if op.decode {
					op.r.partial = 0
				}
				oi++
			}
		}
		if err == nil {
			return nil
		}
		// The write at index done failed: the owning op's request is out of
		// KV memory (or its page write faulted). Finish it early — releasing
		// its pages, including any stored above — and retry the rest.
		s.truncated++
		s.finish(ops[oi].r, true)
		ops = ops[oi+1:]
		total = 0
		for i := range ops {
			total += ops[i].pages
		}
	}
	return nil
}

// dropKVFrom implements the KV degradation path: page i of the request's
// sequence is unreadable, and pages are consumed strictly in order, so the
// suffix from page i onward (including the scratch partial page) is dropped.
// The request rolls back to its last intact prefix and the lost tokens are
// queued for re-ingestion through the prefill path.
func (s *Sim) dropKVFrom(r *running, i int) {
	intact := i * s.cfg.PageTokens
	lost := r.ctx - intact
	// The plan must drop the suffix before its objects are deleted (validity
	// contract: a deleted member invalidates the plan from that member on).
	r.plan.Truncate(i)
	for _, pid := range r.pages[i:] {
		// The backend may have dropped the object already (expiry).
		if err := s.cfg.Memory.Delete(pid); err != nil {
			s.cfg.Memory.Forget(pid)
		}
	}
	s.faults.KVPagesLost += int64(len(r.pages) - i)
	s.faults.KVTokensRecomputed += int64(lost)
	s.faults.RecomputeFLOPs += float64(lost) * s.cfg.Model.FLOPsPerToken(intact+lost/2)
	r.pages = r.pages[:i]
	r.ctx = intact
	r.partial = 0
	r.prefillLeft += lost
	r.faulted = true
}

// readWeights performs the step's weights read. An uncorrectable read is not
// fatal: weights are immutable with a durable upstream copy, so the manager
// reseats them (retry with exponential backoff, preferring another tier) and
// the read is retried. Only exhausting every tier fails the simulation.
func (s *Sim) readWeights() error {
	err := s.getWeights()
	if err == nil {
		return nil
	}
	backoff := s.cfg.Memory.Backoff
	attempts := len(s.cfg.Memory.Tiers()) + 1
	for try := 0; try < attempts; try++ {
		if !errors.Is(err, fault.ErrUncorrectable) {
			return fmt.Errorf("cluster: weights read: %w", err)
		}
		// Fault-isolation window, then rewrite from upstream.
		lat, rerr := s.cfg.Memory.Reseat(s.weights)
		if rerr != nil {
			return fmt.Errorf("cluster: weights reseat: %w", rerr)
		}
		stall := backoff + lat
		s.clock += stall
		if terr := s.cfg.Memory.Tick(stall); terr != nil {
			return terr
		}
		s.faults.WeightsReseats++
		s.faults.ReseatStall += stall
		backoff *= 2
		if s.wTier, rerr = s.cfg.Memory.TierOf(s.weights); rerr != nil {
			return rerr
		}
		// The reseat re-placed the weights: rebuild the resolved plan.
		s.wPlan.Reset()
		if rerr = s.cfg.Memory.PlanAppend(&s.wPlan, s.weights); rerr != nil {
			return rerr
		}
		if err = s.getWeights(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("cluster: weights unreadable after %d reseats: %w", attempts, err)
}

// getWeights performs one weights read through the resolved plan.
func (s *Sim) getWeights() error {
	_, err := s.cfg.Memory.GetPlanned(&s.wPlan)
	return err
}

// finish releases a request's pages, records completion, and retires the
// state struct to the reuse pool. truncated marks a request cut short by
// memory pressure; it only affects the streamed completion record — the
// caller has already counted it in s.truncated.
func (s *Sim) finish(r *running, truncated bool) {
	for _, pid := range r.pages {
		// Pages may have already expired inside an MRM tier; tolerate it.
		if err := s.cfg.Memory.Delete(pid); err != nil {
			s.cfg.Memory.Forget(pid)
		}
	}
	s.completed++
	s.emitDone(r, truncated)
	r.retired = true
	s.freeList = append(s.freeList, r)
}

// emitDone streams a request's completion record to the OnDone observer (a
// no-op when none is registered — the sim's own state is untouched either
// way).
func (s *Sim) emitDone(r *running, truncated bool) {
	if s.onDone == nil {
		return
	}
	d := Done{
		ID:        r.req.ID,
		Tokens:    r.generated,
		At:        s.clock,
		Truncated: truncated,
	}
	// firstTok is stamped at monolithic-prefill completion, or at the first
	// generated token under chunked prefill; a request truncated before
	// either has no first-token latency to report.
	if r.firstTok > 0 || r.generated > 0 {
		d.TTFT = r.firstTok - r.req.Arrival
	}
	if r.generated > 1 {
		d.TBT = (r.lastTok - r.firstTok) / time.Duration(r.generated-1)
	}
	s.onDone(d)
}

// Observations exposes the simulator's latency histograms so callers that
// shard a workload across many sims (the fleet) can Merge them into
// aggregate distributions after the barrier.
func (s *Sim) Observations() (ttft, tbt *metrics.Histogram) {
	return s.ttft, s.tbt
}

func (s *Sim) result() Result {
	res := Result{
		SimTime:      s.clock,
		Completed:    s.completed,
		Truncated:    s.truncated,
		TokensOut:    s.tokensOut,
		TTFT:         s.ttft.Snapshot(),
		TBT:          s.tbt.Snapshot(),
		Energy:       s.cfg.Memory.TotalEnergy(),
		DecodeSteps:  s.decodeSteps,
		PerTierReads: make(map[string]units.Bytes),
		Faults:       s.faults,
		WastedTokens: s.wasted,
	}
	infos := s.cfg.Memory.Tiers()
	for idx, b := range s.perTierReads {
		if s.readTiers[idx] {
			res.PerTierReads[infos[idx].Name] = b
		}
	}
	if s.clock > 0 {
		res.TokensPerSec = float64(s.tokensOut) / s.clock.Seconds()
	}
	if res.Energy > 0 {
		res.TokensPerJoule = float64(s.tokensOut) / float64(res.Energy)
	}
	if s.decodeSteps > 0 {
		res.MemoryBoundFrac = float64(s.memBoundHits) / float64(s.decodeSteps)
	}
	return res
}
