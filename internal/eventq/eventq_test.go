package eventq

import (
	"sort"
	"testing"
	"time"

	"mrm/internal/dist"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindFailStop: "fail-stop",
		KindDeadline: "deadline",
		KindArrival:  "arrival",
		KindStep:     "step",
		Kind(99):     "kind?",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestKindPriority pins the tie-break order the event engine's recorded
// outputs depend on: at one instant, fail-stop beats deadline beats arrival
// beats step.
func TestKindPriority(t *testing.T) {
	var c Calendar
	at := 5 * time.Millisecond
	c.Push(at, KindStep, 0)
	c.Push(at, KindArrival, 1)
	c.Push(at, KindFailStop, 2)
	c.Push(at, KindDeadline, 3)
	want := []Kind{KindFailStop, KindDeadline, KindArrival, KindStep}
	for i, k := range want {
		ev, ok := c.Pop()
		if !ok {
			t.Fatalf("pop %d: calendar empty", i)
		}
		if ev.Kind != k || ev.At != at {
			t.Fatalf("pop %d = (%v, %v), want (%v, %v)", i, ev.At, ev.Kind, at, k)
		}
	}
	if _, ok := c.Pop(); ok {
		t.Fatal("calendar not empty after draining")
	}
}

// TestFIFOTies pins the third key: equal (time, kind) events pop in push
// order, identified here by their Data payloads.
func TestFIFOTies(t *testing.T) {
	var c Calendar
	for i := uint64(0); i < 16; i++ {
		c.Push(time.Second, KindArrival, i)
	}
	for i := uint64(0); i < 16; i++ {
		ev, ok := c.Pop()
		if !ok {
			t.Fatalf("pop %d: calendar empty", i)
		}
		if ev.Data != i {
			t.Fatalf("pop %d carries data %d: FIFO tie-break violated", i, ev.Data)
		}
	}
}

func TestTimeBeatsKind(t *testing.T) {
	var c Calendar
	c.Push(2*time.Second, KindFailStop, 0)
	c.Push(1*time.Second, KindStep, 1)
	ev, _ := c.Pop()
	if ev.Kind != KindStep {
		t.Fatalf("earlier step should beat later fail-stop, popped %v", ev.Kind)
	}
}

func TestPeek(t *testing.T) {
	var c Calendar
	if _, ok := c.Peek(); ok {
		t.Fatal("peek on empty calendar reported an event")
	}
	c.Push(time.Second, KindStep, 7)
	ev, ok := c.Peek()
	if !ok || ev.Data != 7 {
		t.Fatalf("peek = (%v, %v), want the pushed event", ev, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("peek consumed the event: len %d", c.Len())
	}
}

func TestResetKeepsCapacityRestartsSeq(t *testing.T) {
	var c Calendar
	for i := 0; i < 64; i++ {
		c.Push(time.Duration(i), KindStep, 0)
	}
	capBefore := cap(c.h)
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("reset left %d events", c.Len())
	}
	c.Push(time.Second, KindStep, 0)
	if cap(c.h) != capBefore {
		t.Fatalf("reset dropped capacity: %d -> %d", capBefore, cap(c.h))
	}
	ev, _ := c.Pop()
	if ev.Seq != 0 {
		t.Fatalf("first push after reset has seq %d, want 0", ev.Seq)
	}
}

// TestPopOrderMatchesSort drives the heap with a seeded random schedule and
// checks the pop sequence equals a stable sort by (At, Kind, Seq) — the
// property the engine's determinism rests on.
func TestPopOrderMatchesSort(t *testing.T) {
	rng := dist.NewRNG(42)
	var c Calendar
	var want []Event
	for i := 0; i < 500; i++ {
		at := time.Duration(rng.Intn(50)) * time.Millisecond
		kind := Kind(rng.Intn(4))
		c.Push(at, kind, uint64(i))
		want = append(want, Event{At: at, Kind: kind, Seq: uint64(i), Data: uint64(i)})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].before(want[j]) })
	for i, w := range want {
		got, ok := c.Pop()
		if !ok {
			t.Fatalf("pop %d: calendar empty", i)
		}
		if got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestMergeEquivalentToStableSortByArrival pins the property Fleet.Run's
// orphan requeue relies on: pushing items in slice order at their arrival
// times and draining the calendar reproduces sort.SliceStable by arrival.
func TestMergeEquivalentToStableSortByArrival(t *testing.T) {
	rng := dist.NewRNG(7)
	type orphan struct {
		arrival time.Duration
		idx     int
	}
	var items []orphan
	for i := 0; i < 200; i++ {
		items = append(items, orphan{arrival: time.Duration(rng.Intn(20)) * time.Second, idx: i})
	}
	want := append([]orphan(nil), items...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].arrival < want[j].arrival })
	var c Calendar
	for _, it := range items {
		c.Push(it.arrival, KindArrival, uint64(it.idx))
	}
	for i := range want {
		ev, ok := c.Pop()
		if !ok {
			t.Fatalf("pop %d: calendar empty", i)
		}
		if int(ev.Data) != want[i].idx {
			t.Fatalf("pop %d = item %d, want %d", i, ev.Data, want[i].idx)
		}
	}
}

func BenchmarkCalendarPushPop(b *testing.B) {
	var c Calendar
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Reset()
		for j := 0; j < 4; j++ {
			c.Push(time.Duration(j), Kind(j%4), uint64(j))
		}
		for c.Len() > 0 {
			c.Pop()
		}
	}
}
