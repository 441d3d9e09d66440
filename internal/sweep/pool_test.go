package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// MapOn on a pool must be bit-identical to Map at any worker count.
func TestMapOnMatchesMap(t *testing.T) {
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i
	}
	fn := func(_ context.Context, c Cell, v int) (uint64, error) {
		return c.Seed ^ uint64(v)<<32, nil
	}
	want, err := Map(context.Background(), Config{Workers: 1, Seed: 42}, cells, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		got, err := MapOn(p, 42, cells, fn)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d cell %d: got %d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// A pool outlives many sweeps: results stay correct across repeated MapOn
// calls on one pool, which is the per-window usage pattern in RunStream.
func TestPoolReuseAcrossSweeps(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 50; round++ {
		round := round
		got, err := MapOn(p, 0, make([]struct{}, 7), func(_ context.Context, c Cell, _ struct{}) (int, error) {
			return round*100 + c.Index, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != round*100+i {
				t.Fatalf("round %d cell %d: got %d", round, i, v)
			}
		}
	}
}

// MapAsync must report the lowest-index failing cell with Map's exact
// wrapping, and skip the cells above it.
func TestMapAsyncLowestIndexError(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	boom := errors.New("boom")
	h := MapAsync(p, 0, make([]struct{}, 64), func(_ context.Context, c Cell, _ struct{}) (int, error) {
		if c.Index%3 == 1 {
			return 0, fmt.Errorf("cell says: %w", boom)
		}
		return c.Index, nil
	})
	_, err := h.Wait()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
	if !strings.HasPrefix(err.Error(), "sweep: cell 1:") {
		t.Fatalf("want lowest-index cell 1 reported, got %q", err)
	}
	// Wait is idempotent.
	if _, err2 := h.Wait(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second Wait differs: %v vs %v", err2, err)
	}
}

// MapAsync, like Map, must let a lower cell outlive a higher cell's failure.
func TestMapAsyncLowerCellOutlivesHigherFailure(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	_, err := MapAsync(p, 0, make([]struct{}, 2), lowerCellOutlivesFailure(make(chan struct{}))).Wait()
	if want := "sweep: cell 0: cell 0 fails"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// Several handles can be in flight on one pool at once — the double-buffered
// window pattern — and each harvests its own results.
func TestMapAsyncOverlappingHandles(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var hs []*Handle[int]
	for k := 0; k < 8; k++ {
		k := k
		hs = append(hs, MapAsync(p, 0, make([]struct{}, 5), func(_ context.Context, c Cell, _ struct{}) (int, error) {
			return k*10 + c.Index, nil
		}))
	}
	for k, h := range hs {
		got, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != k*10+i {
				t.Fatalf("handle %d cell %d: got %d", k, i, v)
			}
		}
	}
}

// Close drains every submitted task before returning.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(3)
	var ran atomic.Int64
	h := MapAsync(p, 0, make([]struct{}, 200), func(_ context.Context, _ Cell, _ struct{}) (struct{}, error) {
		ran.Add(1)
		return struct{}{}, nil
	})
	p.Close()
	if n := ran.Load(); n != 200 {
		t.Fatalf("Close returned with %d/200 tasks run", n)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// An empty cell slice completes immediately.
func TestMapAsyncEmpty(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	got, err := MapAsync(p, 0, []int(nil), func(_ context.Context, _ Cell, _ int) (int, error) {
		t.Fatal("fn called for empty cells")
		return 0, nil
	}).Wait()
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}
