package hw

import (
	"slices"
	"testing"
	"testing/quick"
)

// TestQueueIsFIFO replays random push/pop streams against a plain slice:
// items leave in the order they arrived, across every compaction and
// growth of the backing array.
func TestQueueIsFIFO(t *testing.T) {
	check := func(ops []bool) bool {
		var q Queue[int]
		var model []int
		next := 0
		for _, push := range ops {
			if push {
				q.Push(next)
				model = append(model, next)
				next++
				continue
			}
			x, ok := q.Pop()
			if ok != (len(model) > 0) {
				return false
			}
			if ok {
				if x != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		if q.Len() != len(model) {
			return false
		}
		var rest []int
		for x, ok := q.Pop(); ok; x, ok = q.Pop() {
			rest = append(rest, x)
		}
		return slices.Equal(rest, model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueAllocatesOnlyToGrow: a queue that drains and refills within
// its largest backlog, or keeps a standing backlog while items flow
// through, reuses its backing array.
func TestQueueAllocatesOnlyToGrow(t *testing.T) {
	var q Queue[int]
	for i := range 8 {
		q.Push(i)
	}
	cycle := func() {
		q.Push(0)
		q.Pop()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a standing backlog allocates %.1f times per push and pop", n)
	}
	burst := func() {
		for range 4 {
			q.Push(0)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	if n := testing.AllocsPerRun(100, burst); n != 0 {
		t.Errorf("a drained burst allocates %.1f times", n)
	}
}
