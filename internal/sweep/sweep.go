// Package sweep is the deterministic parallel execution engine behind the
// repo's experiment drivers. A sweep is a grid of independent simulation
// cells (one per memory config, retention class, batch size, fleet node, …);
// Map fans the cells out across a bounded worker pool and collects results
// in cell order, so a sweep's output is bit-identical whether it ran on one
// worker or sixteen.
//
// Determinism contract:
//
//   - Every cell receives a Cell whose Seed is derived from the sweep's base
//     seed and the cell index via splitmix64 (DeriveSeed). A cell that needs
//     randomness builds its RNG from that seed (Cell.RNG), never from a
//     stream shared with other cells, so results do not depend on which
//     worker ran the cell or in what order.
//   - Results are collected into a slice indexed by cell, and any reduction
//     the caller performs over that slice runs serially in cell order —
//     floating-point sums come out in the same order as a serial loop.
//   - On failure, Map reports the error of the lowest-index failing cell
//     (the same cell a serial loop would have failed on first): unstarted
//     cells above the failure are skipped, while every cell below it still
//     runs to completion under the caller's context.
//
// The pool size defaults to runtime.NumCPU and can be overridden per call
// (Config.Workers) or process-wide (SetDefaultWorkers — what cmd/mrmsim's
// -parallel flag sets). Workers == 1 degenerates to a plain serial loop with
// no goroutines, which is also the reference semantics every parallel run
// must reproduce.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mrm/internal/dist"
)

// defaultWorkers is the process-wide pool size used when Config.Workers is
// zero. It starts at runtime.NumCPU().
var defaultWorkers atomic.Int64

// init seeds the default pool size.
//
//mrm:allow-seedpurity pool sizing is engine configuration, not a decision: results are identical at any worker count
func init() {
	defaultWorkers.Store(int64(runtime.NumCPU()))
}

// SetDefaultWorkers sets the process-wide default pool size. n < 1 resets to
// runtime.NumCPU(). It returns the previous value so callers (tests,
// benchmarks) can restore it.
//
//mrm:allow-seedpurity pool sizing is engine configuration, not a decision: results are identical at any worker count
func SetDefaultWorkers(n int) int {
	if n < 1 {
		n = runtime.NumCPU()
	}
	return int(defaultWorkers.Swap(int64(n)))
}

// DefaultWorkers returns the process-wide default pool size.
//
//mrm:allow-seedpurity pool sizing is engine configuration, not a decision: results are identical at any worker count
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// DeriveSeed maps (base seed, cell index) to an independent full-entropy
// seed via one splitmix64 step over the index's position in the base
// stream. Distinct indices yield uncorrelated seeds even for base == 0, and
// the derivation is pure — no shared RNG to advance, so it is safe to call
// from any worker for any index.
func DeriveSeed(base uint64, index int) uint64 {
	x := base + (uint64(index)+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Cell identifies one unit of sweep work.
type Cell struct {
	// Index is the cell's position in the input slice.
	Index int
	// Seed is the cell's deterministic seed (DeriveSeed of the sweep's base
	// seed and Index).
	Seed uint64
}

// RNG returns a fresh generator seeded with the cell's seed. Each call
// returns an identical stream; cells that interleave several distributions
// should draw them all from one RNG, as a serial loop would.
func (c Cell) RNG() *dist.RNG { return dist.NewRNG(c.Seed) }

// Config tunes one sweep.
type Config struct {
	// Workers bounds the pool; 0 means DefaultWorkers(), 1 runs serially on
	// the calling goroutine.
	Workers int
	// Seed is the sweep's base seed for per-cell seed derivation.
	Seed uint64
}

// Map evaluates fn over every cell of the grid with bounded parallelism and
// returns the results in cell order. fn must treat its inputs as read-only
// shared state (it runs concurrently with other cells) and take all
// randomness from the Cell. If any cell fails, Map skips the unstarted cells
// above it and returns the error of the lowest-index cell that failed, which
// is the serial loop's first error at any worker count.
//
//mrm:allow-seedpurity the worker pool is scheduler plumbing, not a decision: per-cell seeds are pure and results are collected in cell order
func Map[T, R any](ctx context.Context, cfg Config, cells []T, fn func(ctx context.Context, c Cell, v T) (R, error)) ([]R, error) {
	n := len(cells)
	if n == 0 {
		return nil, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	results := make([]R, n)
	if workers == 1 {
		// Reference semantics: a plain serial loop.
		for i, v := range cells {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(ctx, Cell{Index: i, Seed: DeriveSeed(cfg.Seed, i)}, v)
			if err != nil {
				return nil, fmt.Errorf("sweep: cell %d: %w", i, err)
			}
			results[i] = r
		}
		return results, nil
	}

	// A failure at cell f must not stop cells below f: the serial loop
	// would have run them, and the lowest-index error is theirs to report.
	// So a failure cancels no context (a cell below f would report
	// context.Canceled in place of its own outcome); workers skip the cells
	// above minFail instead.
	var (
		next     atomic.Int64 // next cell index to claim
		minFail  atomic.Int64 // lowest failed cell index; n while none has failed
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error // cell minFail's error; guarded by mu
	)
	minFail.Store(int64(n))
	fail := func(i int, err error) {
		mu.Lock()
		if int64(i) < minFail.Load() {
			minFail.Store(int64(i))
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if int64(i) > minFail.Load() || ctx.Err() != nil {
					// Above a failure (its error wins, so these results are
					// never read), or the parent context died (reported
					// below): claims only rise, so skip the rest too.
					return
				}
				r, err := fn(ctx, Cell{Index: i, Seed: DeriveSeed(cfg.Seed, i)}, cells[i])
				if err != nil {
					fail(i, err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if first := int(minFail.Load()); first < n {
		// The cell a serial loop would have died on first: every cell below
		// it ran to completion.
		return nil, fmt.Errorf("sweep: cell %d: %w", first, firstErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Run is Map over the index grid [0, n): for sweeps whose cells are fully
// described by their index and seed.
func Run[R any](ctx context.Context, cfg Config, n int, fn func(ctx context.Context, c Cell) (R, error)) ([]R, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: negative cell count %d", n)
	}
	cells := make([]struct{}, n)
	return Map(ctx, cfg, cells, func(ctx context.Context, c Cell, _ struct{}) (R, error) {
		return fn(ctx, c)
	})
}
