package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestDeriveSeedDistinctAndStable(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("seed collision between cells %d and %d", j, i)
		}
		seen[s] = i
	}
	if DeriveSeed(42, 7) != DeriveSeed(42, 7) {
		t.Fatal("derivation must be pure")
	}
	if DeriveSeed(42, 7) == DeriveSeed(43, 7) {
		t.Fatal("different base seeds should derive different cell seeds")
	}
	// Base 0 must still produce entropy (splitmix property).
	if DeriveSeed(0, 0) == 0 || DeriveSeed(0, 1) == 0 {
		t.Fatal("zero base seed should not yield zero cell seeds")
	}
}

func TestMapOrderedResults(t *testing.T) {
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i * 3
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := Map(context.Background(), Config{Workers: workers}, cells,
			func(_ context.Context, c Cell, v int) (int, error) {
				return v + c.Index, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range got {
			if g != i*4 {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, g, i*4)
			}
		}
	}
}

// The engine's core promise: identical results at any worker count, when
// cells draw randomness only from their Cell seed.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := Run(context.Background(), Config{Workers: workers, Seed: 42}, 64,
			func(_ context.Context, c Cell) (float64, error) {
				rng := c.RNG()
				sum := 0.0
				for i := 0; i < 100; i++ {
					sum += rng.Float64()
				}
				return sum, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d diverged from serial", w)
		}
	}
}

func TestMapReportsLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 8} {
		_, err := Run(context.Background(), Config{Workers: workers}, 50,
			func(_ context.Context, c Cell) (int, error) {
				if c.Index == 13 || c.Index == 37 {
					return 0, fmt.Errorf("cell says: %w", sentinel)
				}
				return c.Index, nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
		// Cells are claimed in index order, a claimed cell always runs to
		// completion, and cell 13 always fails — so the lowest-index failure
		// is 13 at every worker count, matching the serial loop's first error.
		if want := "sweep: cell 13: cell says: boom"; err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
}

// lowerCellOutlivesFailure is a sweep cell for the first-error tests: cell 1
// fails at once, and cell 0, still running, fails on its own after a grace
// period, unless its context is cancelled first.
func lowerCellOutlivesFailure(failed chan struct{}) func(ctx context.Context, c Cell, _ struct{}) (int, error) {
	return func(ctx context.Context, c Cell, _ struct{}) (int, error) {
		if c.Index == 1 {
			close(failed)
			return 0, errors.New("cell 1 fails")
		}
		<-failed
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(50 * time.Millisecond):
			return 0, errors.New("cell 0 fails")
		}
	}
}

// A higher cell's failure must not cancel a lower cell that is still
// running: the lower cell's own outcome is the serial loop's first error.
func TestMapLowerCellOutlivesHigherFailure(t *testing.T) {
	_, err := Map(context.Background(), Config{Workers: 2}, make([]struct{}, 2), lowerCellOutlivesFailure(make(chan struct{})))
	if want := "sweep: cell 0: cell 0 fails"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestMapCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Config{Workers: 4}, 10, func(context.Context, Cell) (int, error) {
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapErrorCancelsRemainingCells(t *testing.T) {
	var started atomic.Int64
	_, err := Run(context.Background(), Config{Workers: 2}, 1000,
		func(ctx context.Context, c Cell) (int, error) {
			started.Add(1)
			if c.Index == 0 {
				return 0, errors.New("early failure")
			}
			// Give cancellation a chance to propagate.
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
			return 0, nil
		})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("cancellation did not skip any of the %d cells", n)
	}
}

func TestMapEmptyAndRunValidation(t *testing.T) {
	out, err := Map(context.Background(), Config{}, []int(nil),
		func(_ context.Context, _ Cell, v int) (int, error) { return v, nil })
	if err != nil || out != nil {
		t.Fatalf("empty sweep: out=%v err=%v", out, err)
	}
	if _, err := Run(context.Background(), Config{}, -1,
		func(context.Context, Cell) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative count should error")
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	old := SetDefaultWorkers(3)
	defer SetDefaultWorkers(old)
	if DefaultWorkers() != 3 {
		t.Fatalf("DefaultWorkers = %d, want 3", DefaultWorkers())
	}
	if prev := SetDefaultWorkers(0); prev != 3 {
		t.Fatalf("Swap returned %d, want 3", prev)
	}
	if DefaultWorkers() < 1 {
		t.Fatal("reset should restore NumCPU >= 1")
	}
}
