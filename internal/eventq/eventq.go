// Package eventq provides the deterministic event calendar behind the
// cluster discrete-event engine. A Calendar is a binary min-heap of events
// ordered by (time, kind, sequence number): time first, then a fixed kind
// priority (fail-stop before housekeeping deadline before arrival before
// batch step), then insertion order. The third key makes every tie
// deterministic — two events pushed at the same instant with the same kind
// pop in push order, no map iteration, no pointer comparison, nothing the
// scheduler or allocator can perturb — which is what makes the event engine's
// runs bit-reproducible.
package eventq

import "time"

// Kind classifies an event. The declaration order IS the tie-break priority
// at equal times: a node's fail-stop preempts everything else scheduled at
// that instant, housekeeping deadlines fire before the arrival that would
// observe their effects, and arrivals enter the batch before the step that
// would run at the same boundary (the engine calls admit() ahead of every
// decode step).
type Kind uint8

// Event kinds in tie-break order.
const (
	KindFailStop Kind = iota // node halt (RunUntil stopAt)
	KindDeadline             // memory housekeeping: refresh or expiry deadline
	KindArrival              // request arrival (or fleet requeue)
	KindStep                 // batch decode/prefill step boundary
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFailStop:
		return "fail-stop"
	case KindDeadline:
		return "deadline"
	case KindArrival:
		return "arrival"
	case KindStep:
		return "step"
	default:
		return "kind?"
	}
}

// Event is one calendar entry. Data is an opaque caller payload (a request
// index, a node id); the calendar never interprets it.
type Event struct {
	At   time.Duration
	Kind Kind
	Seq  uint64 // assigned by Push; FIFO among (At, Kind) ties
	Data uint64
}

// before is the calendar's total order: (At, Kind, Seq) lexicographic.
func (e Event) before(o Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	if e.Kind != o.Kind {
		return e.Kind < o.Kind
	}
	return e.Seq < o.Seq
}

// Calendar is a deterministic event min-heap. The zero value is ready to
// use. Not safe for concurrent use: each simulated node owns its own
// calendar, mirroring the one-goroutine-per-device discipline elsewhere.
type Calendar struct {
	h   []Event
	seq uint64
}

// Len returns the number of pending events.
func (c *Calendar) Len() int { return len(c.h) }

// Reset empties the calendar, keeping the heap's capacity and restarting
// sequence numbers, so a per-iteration rebuild allocates nothing in steady
// state and numbers its events identically every time.
func (c *Calendar) Reset() {
	c.h = c.h[:0]
	c.seq = 0
}

// Push schedules an event. Sequence numbers are assigned in call order, so
// equal-(time, kind) events pop first-pushed-first.
func (c *Calendar) Push(at time.Duration, kind Kind, data uint64) {
	ev := Event{At: at, Kind: kind, Seq: c.seq, Data: data}
	c.seq++
	c.h = append(c.h, ev)
	c.siftUp(len(c.h) - 1)
}

// Peek returns the next event without removing it.
func (c *Calendar) Peek() (Event, bool) {
	if len(c.h) == 0 {
		return Event{}, false
	}
	return c.h[0], true
}

// Pop removes and returns the next event in (time, kind, seq) order.
func (c *Calendar) Pop() (Event, bool) {
	n := len(c.h)
	if n == 0 {
		return Event{}, false
	}
	top := c.h[0]
	c.h[0] = c.h[n-1]
	c.h = c.h[:n-1]
	if len(c.h) > 0 {
		c.siftDown(0)
	}
	return top, true
}

func (c *Calendar) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.h[i].before(c.h[parent]) {
			return
		}
		c.h[i], c.h[parent] = c.h[parent], c.h[i]
		i = parent
	}
}

func (c *Calendar) siftDown(i int) {
	n := len(c.h)
	for {
		least := i
		if l := 2*i + 1; l < n && c.h[l].before(c.h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && c.h[r].before(c.h[least]) {
			least = r
		}
		if least == i {
			return
		}
		c.h[i], c.h[least] = c.h[least], c.h[i]
		i = least
	}
}
