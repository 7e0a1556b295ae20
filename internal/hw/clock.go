package hw

import (
	"container/heap"
	"fmt"
)

// Clock is the single virtual time source. All costs in the simulation
// advance it; nothing reads wall-clock time.
type Clock struct {
	now Cycles
}

// Now returns the current virtual time.
func (c *Clock) Now() Cycles { return c.now }

// Advance moves time forward by d cycles.
func (c *Clock) Advance(d Cycles) { c.now += d }

// AdvanceTo moves time forward to t. It panics if t is in the past, which
// would indicate a broken event ordering.
func (c *Clock) AdvanceTo(t Cycles) {
	if t < c.now {
		panic(fmt.Sprintf("hw: clock moving backwards: now=%d target=%d", c.now, t))
	}
	c.now = t
}

// Reset rewinds the clock to cycle zero (machine reuse only — live kernels
// never travel backwards in time).
func (c *Clock) Reset() { c.now = 0 }

// event is a scheduled callback in the discrete-event queue.
type event struct {
	at   Cycles
	name string
	fn   func()
	seq  uint64 // tie-breaker for deterministic ordering
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// EventQueue is a deterministic discrete-event scheduler. Events at the same
// cycle fire in scheduling order.
type EventQueue struct {
	clock *Clock
	heap  eventHeap
	seq   uint64
}

// NewEventQueue returns an empty queue bound to clock.
func NewEventQueue(clock *Clock) *EventQueue {
	return &EventQueue{clock: clock}
}

// Schedule arranges for fn to run at absolute cycle time at. Scheduling in
// the past clamps to now.
func (q *EventQueue) Schedule(at Cycles, name string, fn func()) {
	if at < q.clock.Now() {
		at = q.clock.Now()
	}
	heap.Push(&q.heap, &event{at: at, name: name, fn: fn, seq: q.seq})
	q.seq++
}

// ScheduleAfter arranges for fn to run d cycles from now.
func (q *EventQueue) ScheduleAfter(d Cycles, name string, fn func()) {
	q.Schedule(q.clock.Now()+d, name, fn)
}

// Pending returns the number of queued events.
func (q *EventQueue) Pending() int { return len(q.heap) }

// Reset drops every queued event and rewinds the sequence counter, so a
// reused machine schedules from the same deterministic starting point as a
// fresh one.
func (q *EventQueue) Reset() {
	clear(q.heap)
	q.heap = q.heap[:0]
	q.seq = 0
}

// RunUntilIdle advances the clock to each pending event in turn and fires
// it, until the queue is empty or maxEvents have fired (0 = unlimited).
// It returns the number of events fired.
func (q *EventQueue) RunUntilIdle(maxEvents int) int {
	n := 0
	for len(q.heap) > 0 {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		e := heap.Pop(&q.heap).(*event)
		if e.at > q.clock.Now() {
			q.clock.AdvanceTo(e.at)
		}
		e.fn()
		n++
	}
	return n
}

// RunUntil advances through events until the clock would pass t; events
// strictly after t remain queued and the clock is left at t.
func (q *EventQueue) RunUntil(t Cycles) int {
	n := 0
	for len(q.heap) > 0 && q.heap[0].at <= t {
		e := heap.Pop(&q.heap).(*event)
		if e.at > q.clock.Now() {
			q.clock.AdvanceTo(e.at)
		}
		e.fn()
		n++
	}
	if q.clock.Now() < t {
		q.clock.AdvanceTo(t)
	}
	return n
}
