package mkos

import (
	"errors"
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/mk"
	"vmmk/internal/trace"
)

// RTServer is a DROPS-style real-time service running beside the
// time-sharing OS server — the arrangement §3.3 cites as evidence that a
// microkernel hosts a paravirtualised OS *and* real-time services at once
// ("the Dresden DROPS system … is in industrial use"). Periodic tasks are
// admitted under a utilisation bound and driven by the hardware timer,
// whose ticks reach the server as interrupt IPCs; jobs that do not finish
// within their period are counted as deadline misses.
type RTServer struct {
	K      *mk.Kernel
	Space  *mk.Space
	Thread *mk.Thread

	tickInterval hw.Cycles
	utilCap      float64 // admissible fraction of each tick's capacity
	tasks        []*RTTask
	tick         uint64
}

// RTTask is one periodic activity.
type RTTask struct {
	Name        string
	PeriodTicks uint64    // release every n timer ticks
	Budget      hw.Cycles // work per job

	pending   hw.Cycles // work left in the current job (0 = idle)
	deadline  uint64    // absolute tick the current job must finish by
	releases  uint64
	completes uint64
	misses    uint64
}

// Stats returns the task's release/completion/miss counters.
func (t *RTTask) Stats() (releases, completes, misses uint64) {
	return t.releases, t.completes, t.misses
}

// Errors from the real-time server.
var (
	ErrAdmission = errors.New("mkos: task set would exceed the utilisation bound")
	ErrBadTask   = errors.New("mkos: invalid task parameters")
)

// NewRTServer boots the real-time server and claims the timer line. The
// timer device must be started by the caller with the same interval.
func NewRTServer(k *mk.Kernel, timerLine hw.IRQLine, tickInterval hw.Cycles, utilCap float64) (*RTServer, error) {
	if tickInterval == 0 {
		return nil, ErrBadTask
	}
	if utilCap <= 0 || utilCap > 1 {
		utilCap = 0.8
	}
	sp, err := k.NewSpace("srv.rt", mk.NilThread)
	if err != nil {
		return nil, err
	}
	s := &RTServer{K: k, Space: sp, tickInterval: tickInterval, utilCap: utilCap}
	s.Thread = k.NewThread(sp, "srv.rt", 10, s.handle) // highest priority
	if err := k.RegisterIRQ(timerLine, s.Thread.ID); err != nil {
		return nil, err
	}
	return s, nil
}

// Comp returns the server's interned trace attribution handle.
func (s *RTServer) Comp() trace.Comp { return s.Thread.Comp() }

// Utilisation returns the admitted task set's total utilisation.
func (s *RTServer) Utilisation() float64 {
	u := 0.0
	for _, t := range s.tasks {
		u += float64(t.Budget) / (float64(t.PeriodTicks) * float64(s.tickInterval))
	}
	return u
}

// Admit adds a periodic task if the utilisation bound allows it.
func (s *RTServer) Admit(name string, periodTicks uint64, budget hw.Cycles) (*RTTask, error) {
	if periodTicks == 0 || budget == 0 {
		return nil, ErrBadTask
	}
	add := float64(budget) / (float64(periodTicks) * float64(s.tickInterval))
	if s.Utilisation()+add > s.utilCap {
		return nil, fmt.Errorf("%w: %.2f + %.2f > %.2f", ErrAdmission, s.Utilisation(), add, s.utilCap)
	}
	t := &RTTask{Name: name, PeriodTicks: periodTicks, Budget: budget}
	s.tasks = append(s.tasks, t)
	s.K.M.CPU.Work(s.Comp(), 300) // admission test, reservation setup
	return t, nil
}

// ForceAdmit bypasses admission control (to demonstrate overload — the
// misses it produces are the point).
func (s *RTServer) ForceAdmit(name string, periodTicks uint64, budget hw.Cycles) *RTTask {
	t := &RTTask{Name: name, PeriodTicks: periodTicks, Budget: budget}
	s.tasks = append(s.tasks, t)
	return t
}

// handle receives timer-interrupt IPCs and runs one scheduling round.
func (s *RTServer) handle(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
	if msg.Label != mk.LabelIRQ {
		return mk.Msg{}, ErrBadRequest
	}
	s.tick++
	comp := s.Comp()
	k.M.CPU.Work(comp, 80) // scheduler entry

	// Release phase: jobs whose period divides the tick count. A job
	// still pending at its next release is a deadline miss (the job is
	// abandoned; the new one starts — standard overrun policy).
	for _, t := range s.tasks {
		if s.tick%t.PeriodTicks != 0 {
			continue
		}
		if t.pending > 0 {
			t.misses++
		}
		t.releases++
		t.pending = t.Budget
		t.deadline = s.tick + t.PeriodTicks
	}

	// Execution phase: earliest deadline first, within this tick's
	// capacity share.
	capacity := hw.Cycles(float64(s.tickInterval) * s.utilCap)
	for capacity > 0 {
		var next *RTTask
		for _, t := range s.tasks {
			if t.pending == 0 {
				continue
			}
			if next == nil || t.deadline < next.deadline {
				next = t
			}
		}
		if next == nil {
			break
		}
		run := next.pending
		if run > capacity {
			run = capacity
		}
		k.M.CPU.Work(comp, run)
		next.pending -= run
		capacity -= run
		if next.pending == 0 {
			next.completes++
		}
	}
	return mk.Msg{}, nil
}

// Ticks returns how many timer ticks the server has processed.
func (s *RTServer) Ticks() uint64 { return s.tick }

// TotalMisses sums deadline misses across the task set.
func (s *RTServer) TotalMisses() uint64 {
	var n uint64
	for _, t := range s.tasks {
		n += t.misses
	}
	return n
}
