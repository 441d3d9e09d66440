package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a persistent bounded worker pool for repeated sweeps. Map spins up
// and tears down its workers on every call, which is fine for one-shot
// experiment grids but pure churn for a streaming fleet replay that runs a
// sweep per window — thousands of sweeps per call. A Pool is created once
// (NewPool), shared by every MapOn/MapAsync in that replay, and torn down
// with Close.
//
// The determinism contract is Map's: per-cell seeds are pure (DeriveSeed),
// results land in cell order, and the lowest-index failing cell's error is
// reported. Tasks are executed from a FIFO queue, so a one-worker pool runs
// cells in submission order — the same order as Map's serial reference loop —
// and because cells are independent, results are identical at any worker
// count.
type Pool struct {
	workers int
	mu      sync.Mutex // guards queue, head, closed
	cond    *sync.Cond
	queue   []func()
	head    int
	closed  bool
	wg      sync.WaitGroup
}

// NewPool starts a pool with the given number of workers (<= 0 means
// DefaultWorkers()). The caller owns the pool and must Close it.
//
//mrm:allow-seedpurity the worker pool is scheduler plumbing, not a decision: per-cell seeds are pure and results are collected in cell order
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// worker drains the task queue until the pool is closed and empty.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.head == len(p.queue) && !p.closed {
			p.cond.Wait()
		}
		if p.head == len(p.queue) {
			p.mu.Unlock()
			return
		}
		fn := p.queue[p.head]
		p.queue[p.head] = nil
		p.head++
		if p.head == len(p.queue) {
			p.queue = p.queue[:0]
			p.head = 0
		}
		p.mu.Unlock()
		fn()
	}
}

// submit enqueues one task. The queue is unbounded, so submission never
// blocks — backpressure is the caller's business (MapAsync callers bound
// their in-flight handles).
func (p *Pool) submit(fn func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("sweep: task submitted to closed Pool")
	}
	p.queue = append(p.queue, fn)
	p.mu.Unlock()
	p.cond.Signal()
}

// Close drains all submitted tasks and stops the workers. It blocks until
// every outstanding task has finished; submitting after Close panics.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Handle is an in-flight MapAsync sweep: Wait blocks until every cell has
// finished and returns the results in cell order, or the lowest-index
// failing cell's error — exactly Map's semantics, split into dispatch and
// harvest so the caller can overlap its own work (e.g. filling the next
// window) with the sweep.
type Handle[R any] struct {
	mu      sync.Mutex // guards results, left, errIdx, err
	results []R
	left    int
	errIdx  int
	err     error
	minFail atomic.Int64 // lowest failed cell index; len(cells) while none has failed
	done    chan struct{}
}

// Wait blocks until the sweep completes. It is idempotent: every call
// returns the same results (in cell order) or the same lowest-index error,
// wrapped exactly as Map wraps it.
//
//mrm:allow-seedpurity harvest synchronization only: results were produced from pure per-cell seeds and are returned in cell order
func (h *Handle[R]) Wait() ([]R, error) {
	<-h.done
	if h.errIdx >= 0 {
		return nil, fmt.Errorf("sweep: cell %d: %w", h.errIdx, h.err)
	}
	return h.results, nil
}

// MapAsync dispatches fn over every cell onto the pool and returns
// immediately with a Handle; Wait harvests the results in cell order. fn has
// Map's contract: it runs concurrently with other cells and must take all
// randomness from its Cell. Once a cell fails, cells above it that have not
// started are skipped (their results are never read because the error
// wins), while cells below it still run, so the lowest-index error is the
// serial loop's first error. fn's context is never cancelled: one shared
// context cannot tell the cells below a failure from those above it.
func MapAsync[T, R any](p *Pool, seed uint64, cells []T, fn func(ctx context.Context, c Cell, v T) (R, error)) *Handle[R] {
	h := &Handle[R]{results: make([]R, len(cells)), left: len(cells), errIdx: -1, done: make(chan struct{})}
	if len(cells) == 0 {
		close(h.done)
		return h
	}
	ctx := context.Background()
	h.minFail.Store(int64(len(cells)))
	for i := range cells {
		i, v := i, cells[i]
		p.submit(func() {
			var r R
			var err error
			if int64(i) < h.minFail.Load() {
				r, err = fn(ctx, Cell{Index: i, Seed: DeriveSeed(seed, i)}, v)
			}
			h.mu.Lock()
			if err != nil {
				if h.errIdx < 0 || i < h.errIdx {
					h.errIdx, h.err = i, err
					h.minFail.Store(int64(i))
				}
			} else {
				h.results[i] = r
			}
			h.left--
			last := h.left == 0
			h.mu.Unlock()
			if last {
				close(h.done)
			}
		})
	}
	return h
}

// MapOn is Map over an existing pool: dispatch plus immediate harvest. It is
// the drop-in replacement for repeated Map calls that would otherwise
// rebuild the worker pool each time.
func MapOn[T, R any](p *Pool, seed uint64, cells []T, fn func(ctx context.Context, c Cell, v T) (R, error)) ([]R, error) {
	return MapAsync(p, seed, cells, fn).Wait()
}
