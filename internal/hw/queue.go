package hw

// Queue is a first-in first-out queue that keeps its backing array. Pop
// advances a head index instead of reslicing, and a Push that finds the
// array full moves the live items to its front when at least half of it
// has been popped, and otherwise lets it grow. A queue that drains and
// refills in bursts therefore allocates only while its backlog grows past
// the largest it has held, and the moves never outnumber the pops. The
// zero value is an empty queue.
type Queue[T any] struct {
	items []T
	head  int // index of the oldest item
}

// Push appends x at the tail.
func (q *Queue[T]) Push(x T) {
	if q.head > 0 && len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, x)
}

// Pop removes and returns the oldest item; ok is false when the queue is
// empty. The vacated slot is cleared, so the queue keeps nothing a popped
// item references alive.
func (q *Queue[T]) Pop() (x T, ok bool) {
	if q.head == len(q.items) {
		return x, false
	}
	x = q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return x, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }
