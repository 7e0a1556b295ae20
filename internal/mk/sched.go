package mk

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// ScheduleOn runs one scheduling decision on the given CPU: dispatch
// pending interrupts (boot CPU only — external interrupts are routed
// there), then install the live thread homed on cpu with the highest Prio,
// charging the switch to that CPU. Among equals it takes the first after
// the installed thread in thread-ID order, wrapping around: round robin
// within each priority. It returns the installed thread (nil if no live
// thread is homed on cpu).
func (k *Kernel) ScheduleOn(cpu int) *Thread {
	if cpu < 0 || cpu >= len(k.current) {
		panic(fmt.Sprintf("mk: schedule on nonexistent CPU %d", cpu))
	}
	c := k.M.CPUs[cpu]
	c.Trap(k.comp, false)
	if cpu == 0 {
		k.M.IRQ.DispatchPending(k.comp)
	}
	// One pass over the thread table (IDs 1 to n), starting after the
	// installed thread and wrapping around.
	cur := k.current[cpu]
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
		c.SwitchSpace(k.comp, &next.Space.PT)
		k.current[cpu] = next
	}
	c.Charge(k.comp, trace.KSchedule, 50)
	c.ReturnTo(k.comp, hw.Ring3)
	return next
}

// CurrentOn returns the thread currently installed on the given CPU.
func (k *Kernel) CurrentOn(cpu int) *Thread { return k.current[cpu] }

// uninstall takes t off its home CPU if it is installed there, and
// reports whether it was.
func (k *Kernel) uninstall(t *Thread) bool {
	if k.current[t.Affinity] != t {
		return false
	}
	k.current[t.Affinity] = nil
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

// cpusRunningSpace returns the CPUs whose installed thread belongs to
// space s: the CPUs whose TLBs may cache the space's translations, and so
// the targets of a shootdown.
func (k *Kernel) cpusRunningSpace(s *Space) hw.CPUSet {
	var set hw.CPUSet
	for i, t := range k.current {
		if t != nil && t.Space == s {
			set |= 1 << i
		}
	}
	return set
}
