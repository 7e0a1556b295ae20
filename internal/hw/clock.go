package hw

import "fmt"

// Clock is the single virtual time source. All costs in the simulation
// advance it; nothing reads wall-clock time. Only package hw moves it: a
// CPU's charging helpers by the cost they charge, and the event queue to
// the next event's cycle.
type Clock struct {
	now Cycles
}

// Now returns the current virtual time.
func (c *Clock) Now() Cycles { return c.now }

// advance moves time forward by d cycles.
func (c *Clock) advance(d Cycles) { c.now += d }

// advanceTo moves time forward to t. It panics if t is in the past, which
// would indicate a broken event ordering.
func (c *Clock) advanceTo(t Cycles) {
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
	at  Cycles
	fn  func()
	seq uint64 // tie-breaker for deterministic ordering
}

// before orders events by due time, then by scheduling order. Sequence
// numbers are unique, so this is a total order and the pop order does not
// depend on the heap's shape.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// EventQueue is a deterministic discrete-event scheduler. Events at the same
// cycle fire in scheduling order.
type EventQueue struct {
	clock  *Clock
	events []event // binary min-heap on (at, seq), stored by value
	seq    uint64
}

// NewEventQueue returns an empty queue bound to clock.
func NewEventQueue(clock *Clock) *EventQueue {
	return &EventQueue{clock: clock}
}

// Schedule arranges for fn to run at absolute cycle time at. Scheduling in
// the past clamps to now.
func (q *EventQueue) Schedule(at Cycles, fn func()) {
	if at < q.clock.Now() {
		at = q.clock.Now()
	}
	q.push(event{at: at, fn: fn, seq: q.seq})
	q.seq++
}

// push adds e to the heap and sifts it up.
func (q *EventQueue) push(e event) {
	q.events = append(q.events, e)
	h := q.events
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the earliest event. The vacated slot is cleared
// so the queue holds no reference to a fired callback.
func (q *EventQueue) pop() event {
	h := q.events
	n := len(h) - 1
	e := h[0]
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	q.events = h
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(&h[j]) {
			j = r
		}
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return e
}

// ScheduleAfter arranges for fn to run d cycles from now.
func (q *EventQueue) ScheduleAfter(d Cycles, fn func()) {
	q.Schedule(q.clock.Now()+d, fn)
}

// Pending returns the number of queued events.
func (q *EventQueue) Pending() int { return len(q.events) }

// Reset drops every queued event and rewinds the sequence counter, so a
// reused machine schedules from the same deterministic starting point as a
// fresh one.
func (q *EventQueue) Reset() {
	clear(q.events)
	q.events = q.events[:0]
	q.seq = 0
}

// RunUntilIdle advances the clock to each pending event in turn and fires
// it, until the queue is empty or maxEvents have fired (0 = unlimited).
// It returns the number of events fired.
func (q *EventQueue) RunUntilIdle(maxEvents int) int {
	n := 0
	for len(q.events) > 0 {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		e := q.pop()
		if e.at > q.clock.Now() {
			q.clock.advanceTo(e.at)
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
	for len(q.events) > 0 && q.events[0].at <= t {
		e := q.pop()
		if e.at > q.clock.Now() {
			q.clock.advanceTo(e.at)
		}
		e.fn()
		n++
	}
	if q.clock.Now() < t {
		q.clock.advanceTo(t)
	}
	return n
}
