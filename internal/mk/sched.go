package mk

import (
	"fmt"
	"slices"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// scheduler distributes threads over per-CPU priority round-robin run
// queues. The synchronous IPC model resolves most control transfer
// directly, so the scheduler's observable job is (a) picking whom a timer
// tick preempts to, (b) charging context-switch costs when a CPU's running
// thread changes, and (c) on multiprocessors, placing threads by affinity
// and stealing work across CPUs when a queue runs dry — each steal is a
// real migration paid for with an IPI. A 1-CPU machine collapses to the
// single global queue the macro experiments (E8) were calibrated on.
type scheduler struct {
	cpus    []cpuQueue // one per machine CPU; index == hw CPU index
	targets []int      // cpusRunningSpace's result, reused
}

// cpuQueue is one CPU's run queue: its threads in one FIFO, plus the
// thread currently installed on that CPU. Run queues hold a handful of
// threads, so a pick scans the whole FIFO for the highest priority.
type cpuQueue struct {
	fifo    []*Thread
	current *Thread
}

func (q *cpuQueue) add(t *Thread) { q.fifo = append(q.fifo, t) }

func (q *cpuQueue) remove(t *Thread) {
	if i := slices.Index(q.fifo, t); i >= 0 {
		q.fifo = slices.Delete(q.fifo, i, i+1)
	}
	if q.current == t {
		q.current = nil
		t.onCPU = -1
	}
}

// next returns the position of the ready thread with the highest Prio,
// the earliest among equals, that is not installed on a CPU other than
// cpu (a cpu of -1 admits only threads installed nowhere), or -1 when no
// thread qualifies.
func (q *cpuQueue) next(cpu int) int {
	best := -1
	for i, t := range q.fifo {
		if t.State != StateReady || t.onCPU >= 0 && t.onCPU != cpu {
			continue
		}
		if best < 0 || t.Prio > q.fifo[best].Prio {
			best = i
		}
	}
	return best
}

func (s *scheduler) add(t *Thread)    { s.cpus[t.Affinity].add(t) }
func (s *scheduler) remove(t *Thread) { s.cpus[t.Affinity].remove(t) }

// pick returns the next ready thread for cpu in priority order and
// rotates it to the back of the queue: behind every thread of its
// priority, which is round robin within each priority class. Threads
// currently installed on another CPU are skipped — a thread never runs on
// two CPUs at once. An empty queue falls back to stealing.
func (k *Kernel) pick(cpu int) *Thread {
	q := &k.sched.cpus[cpu]
	i := q.next(cpu)
	if i < 0 {
		return k.steal(cpu)
	}
	t := q.fifo[i]
	q.fifo = append(slices.Delete(q.fifo, i, i+1), t)
	return t
}

// steal migrates a stealable thread from another CPU's queue to cpu,
// paying a reschedule IPI toward the victim: victims are scanned in
// ascending CPU order, and each gives up the thread its own pick would
// choose among those installed nowhere. It returns nil when no CPU has
// spare ready work.
func (k *Kernel) steal(cpu int) *Thread {
	for v := range k.sched.cpus {
		if v == cpu {
			continue
		}
		vq := &k.sched.cpus[v]
		i := vq.next(-1)
		if i < 0 {
			continue
		}
		t := vq.fifo[i]
		vq.fifo = slices.Delete(vq.fifo, i, i+1)
		t.Affinity = cpu
		k.sched.cpus[cpu].add(t)
		k.M.SendIPI(cpu, v)
		return t
	}
	return nil
}

// ScheduleOn runs one scheduling decision on the given CPU: dispatch
// pending interrupts (boot CPU only — external interrupts are routed
// there), then switch to the next ready thread, charging the switch to
// that CPU. It returns the chosen thread (nil if none ready anywhere).
func (k *Kernel) ScheduleOn(cpu int) *Thread {
	if cpu < 0 || cpu >= len(k.sched.cpus) {
		panic(fmt.Sprintf("mk: schedule on nonexistent CPU %d", cpu))
	}
	c := k.M.CPUs[cpu]
	q := &k.sched.cpus[cpu]
	c.Trap(k.comp, false)
	if cpu == 0 {
		k.M.IRQ.DispatchPending(k.comp)
	}
	next := k.pick(cpu)
	if next != nil && next != q.current {
		if old := q.current; old != nil {
			old.onCPU = -1
		}
		c.Charge(k.comp, trace.KContextSwitch, k.M.Arch.Costs.CtxSave)
		c.SwitchSpace(k.comp, next.Space.PT)
		q.current = next
		next.onCPU = cpu
	}
	c.Charge(k.comp, trace.KSchedule, 50)
	c.ReturnTo(k.comp, hw.Ring3)
	return next
}

// CurrentOn returns the thread currently installed on the given CPU.
func (k *Kernel) CurrentOn(cpu int) *Thread { return k.sched.cpus[cpu].current }

// SetAffinity re-homes a thread onto the given CPU. Re-homing to the
// thread's current CPU is free; an actual migration moves the thread's
// queue entry and, if the thread is installed on its old CPU, kicks that
// CPU with a reschedule IPI. The boot-time pinning a platform does before
// any thread has run charges nothing.
func (k *Kernel) SetAffinity(tid ThreadID, cpu int) error {
	t := k.Thread(tid)
	if t == nil || t.State == StateDead {
		return ErrNoSuchThread
	}
	if cpu < 0 || cpu >= k.M.NCPUs() {
		return ErrBadCPU
	}
	if t.Affinity == cpu {
		return nil
	}
	wasOn := t.onCPU
	k.sched.cpus[t.Affinity].remove(t)
	t.Affinity = cpu
	k.sched.cpus[cpu].add(t)
	if wasOn >= 0 {
		k.M.SendIPI(cpu, wasOn)
	}
	return nil
}

// cpusRunningSpace returns the CPUs (ascending, excluding except) whose
// installed thread belongs to space s — the set whose TLBs may cache the
// space's translations and therefore the target list for a shootdown. The
// list is the scheduler's scratch slice, valid until the next call; its
// caller hands it straight to the shootdown.
func (k *Kernel) cpusRunningSpace(s *Space, except int) []int {
	out := k.sched.targets[:0]
	for i, q := range k.sched.cpus {
		if i == except {
			continue
		}
		if q.current != nil && q.current.Space == s {
			out = append(out, i)
		}
	}
	k.sched.targets = out
	return out
}
