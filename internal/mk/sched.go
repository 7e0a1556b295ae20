package mk

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// scheduler records which thread each CPU has installed. Threads are
// placed on CPUs, not moved between them: a thread runs only on its home
// CPU (Thread.Affinity), and only SetAffinity re-homes it, as on L4, where
// a user-level scheduler migrates threads and the kernel never does. The
// synchronous IPC model resolves most control transfer directly, so the
// scheduler's observable job is picking whom a timer tick preempts to and
// charging context-switch costs when a CPU's installed thread changes.
type scheduler struct {
	current []*Thread // one per machine CPU; index == hw CPU index
	targets []int     // cpusRunningSpace's result, reused
}

// ScheduleOn runs one scheduling decision on the given CPU: dispatch
// pending interrupts (boot CPU only — external interrupts are routed
// there), then install the live thread homed on cpu with the highest Prio,
// charging the switch to that CPU. Among equals it takes the first after
// the installed thread in thread-ID order, wrapping around: round robin
// within each priority. It returns the installed thread (nil if no live
// thread is homed on cpu).
func (k *Kernel) ScheduleOn(cpu int) *Thread {
	if cpu < 0 || cpu >= len(k.sched.current) {
		panic(fmt.Sprintf("mk: schedule on nonexistent CPU %d", cpu))
	}
	c := k.M.CPUs[cpu]
	c.Trap(k.comp, false)
	if cpu == 0 {
		k.M.IRQ.DispatchPending(k.comp)
	}
	// One pass over the thread table (IDs 1 to n), starting after the
	// installed thread and wrapping around.
	cur := k.sched.current[cpu]
	after := 0
	if cur != nil {
		after = int(cur.ID)
	}
	n := len(k.threads) - 1
	var next *Thread
	for i := range n {
		t := k.threads[(after+i)%n+1]
		if !t.Dead && t.Affinity == cpu && (next == nil || t.Prio > next.Prio) {
			next = t
		}
	}
	if next != nil && next != cur {
		c.Charge(k.comp, trace.KContextSwitch, k.M.Arch.Costs.CtxSave)
		c.SwitchSpace(k.comp, next.Space.PT)
		k.sched.current[cpu] = next
	}
	c.Charge(k.comp, trace.KSchedule, 50)
	c.ReturnTo(k.comp, hw.Ring3)
	return next
}

// CurrentOn returns the thread currently installed on the given CPU.
func (k *Kernel) CurrentOn(cpu int) *Thread { return k.sched.current[cpu] }

// uninstall takes t off its home CPU if it is installed there, and
// reports whether it was.
func (k *Kernel) uninstall(t *Thread) bool {
	if k.sched.current[t.Affinity] != t {
		return false
	}
	k.sched.current[t.Affinity] = nil
	return true
}

// SetAffinity re-homes a thread onto the given CPU. Re-homing to the
// thread's current CPU is free; re-homing a thread installed on its old
// CPU takes it off that CPU and kicks it with a reschedule IPI. The
// boot-time pinning a platform does before any thread has run charges
// nothing.
func (k *Kernel) SetAffinity(tid ThreadID, cpu int) error {
	t := k.Thread(tid)
	if t == nil || t.Dead {
		return ErrNoSuchThread
	}
	if cpu < 0 || cpu >= k.M.NCPUs() {
		return ErrBadCPU
	}
	if t.Affinity == cpu {
		return nil
	}
	if k.uninstall(t) {
		k.M.SendIPI(cpu, t.Affinity)
	}
	t.Affinity = cpu
	return nil
}

// cpusRunningSpace returns the CPUs (ascending, excluding except) whose
// installed thread belongs to space s — the set whose TLBs may cache the
// space's translations and therefore the target list for a shootdown. The
// list is the scheduler's scratch slice, valid until the next call; its
// caller hands it straight to the shootdown.
func (k *Kernel) cpusRunningSpace(s *Space, except int) []int {
	out := k.sched.targets[:0]
	for i, t := range k.sched.current {
		if i != except && t != nil && t.Space == s {
			out = append(out, i)
		}
	}
	k.sched.targets = out
	return out
}
