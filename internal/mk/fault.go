package mk

import (
	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// Page-fault protocol labels. The kernel converts a hardware fault into an
// IPC to the faulting space's pager; the pager replies with a map item that
// resolves it. This is the external-pager mechanism at the centre of the
// paper's §3.1 liability-inversion argument.
const (
	LabelPageFault uint32 = 0xFFF0 + iota
	LabelPageFaultReply
	LabelIRQ
	LabelException
)

// Touch simulates thread t accessing virtual page vpn with the given
// rights: translate, and on failure run the pager protocol and retry. It
// returns the resolved PTE.
func (k *Kernel) Touch(tid ThreadID, vpn hw.VPN, want hw.Perm) (hw.PTE, error) {
	t := k.Thread(tid)
	if t == nil {
		return hw.PTE{}, ErrNoSuchThread
	}
	k.M.CPU.SwitchSpace(t.comp, &t.Space.PT)
	e, res := k.M.CPU.Translate(t.comp, vpn, want)
	if res == hw.XlateOK {
		return e, nil
	}
	if err := k.handleFault(t, vpn, want); err != nil {
		return hw.PTE{}, err
	}
	e, res = k.M.CPU.Translate(t.comp, vpn, want)
	if res != hw.XlateOK {
		return hw.PTE{}, ErrPagerFailed
	}
	return e, nil
}

// handleFault runs the kernel fault path: enter the kernel, synthesise a
// fault IPC to the pager, apply the pager's reply mapping.
func (k *Kernel) handleFault(t *Thread, vpn hw.VPN, want hw.Perm) error {
	k.M.CPU.Trap(k.comp, false) // faults always take the slow gate
	k.M.CPU.Charge(k.comp, trace.KPageFault, k.M.Arch.Costs.PrivCheck)

	pagerID := t.Space.Pager
	if pagerID == NilThread {
		k.M.CPU.ReturnTo(k.comp, hw.Ring3)
		return ErrNoPager
	}
	pager := k.Thread(pagerID)
	if pager == nil || pager.Dead || pager.Space.Dead || pager.Handler == nil {
		// Pager gone: the fault cannot be resolved. The faulting thread
		// is the casualty; the kernel and everyone else survive.
		k.M.CPU.ReturnTo(k.comp, hw.Ring3)
		return ErrNoPager
	}

	// Fault IPC: kernel-synthesised message on behalf of the faulter.
	k.M.CPU.Charge(k.comp, trace.KPagerFault, 30)
	k.M.CPU.SwitchSpace(k.comp, &pager.Space.PT)
	k.M.CPU.ReturnTo(k.comp, hw.Ring3)

	words := [2]uint64{uint64(vpn), uint64(want)}
	reply, herr := k.deliver(pager.Handler, t.ID, Msg{Label: LabelPageFault, Words: words[:]})

	k.M.CPU.Trap(k.comp, false)
	if herr == nil && len(reply.Map) > 0 {
		if merr := k.applyMapItems(pager.Space, t.Space, reply.Map); merr != nil {
			herr = merr
		}
	} else if herr == nil {
		herr = ErrPagerFailed
	}
	k.M.CPU.SwitchSpace(k.comp, &t.Space.PT)
	k.M.CPU.ReturnTo(k.comp, hw.Ring3)
	return herr
}

// SetExceptionHandler nominates the thread that receives a space's non-
// page-fault exceptions (divide error, illegal instruction, …) as IPC —
// the L4 exception protocol, the exact structural twin of the VMM's
// exception virtualisation (primitive 7). A space without a handler kills
// the faulting thread.
func (k *Kernel) SetExceptionHandler(s *Space, handler ThreadID) error {
	if handler != NilThread && k.Thread(handler) == nil {
		return ErrNoSuchThread
	}
	s.ExcHandler = handler
	k.M.CPU.Work(k.comp, 100)
	return nil
}

// RaiseException simulates thread tid taking a synchronous exception with
// the given vector. The kernel converts it into an IPC to the space's
// exception handler; the handler's reply resumes the thread (true) or the
// kernel kills it (false, or no handler).
func (k *Kernel) RaiseException(tid ThreadID, vector int) (resumed bool, err error) {
	t := k.Thread(tid)
	if t == nil {
		return false, ErrNoSuchThread
	}
	k.M.CPU.Trap(k.comp, false)
	k.M.CPU.Work(k.comp, k.M.Arch.Costs.PrivCheck)

	hid := t.Space.ExcHandler
	handler := k.Thread(hid)
	if handler == nil || handler.Dead || handler.Space.Dead || handler.Handler == nil {
		// Unhandled: the faulter dies; nobody else is touched.
		k.M.CPU.ReturnTo(k.comp, hw.Ring3)
		k.KillThread(tid)
		return false, nil
	}
	// Exception IPC, kernel-synthesised on behalf of the faulter.
	k.M.CPU.Charge(k.comp, trace.KIPCSend, 30)
	k.M.CPU.SwitchSpace(k.comp, &handler.Space.PT)
	k.M.CPU.ReturnTo(k.comp, hw.Ring3)
	words := [1]uint64{uint64(vector)}
	reply, herr := k.deliver(handler.Handler, tid, Msg{Label: LabelException, Words: words[:]})
	k.M.CPU.Trap(k.comp, false)
	k.M.CPU.SwitchSpace(k.comp, &t.Space.PT)
	k.M.CPU.ReturnTo(k.comp, hw.Ring3)
	if herr != nil || len(reply.Words) == 0 || reply.Words[0] == 0 {
		k.KillThread(tid)
		return false, nil
	}
	return true, nil
}

// RegisterIRQ routes a hardware interrupt line to a driver thread: the
// kernel's interrupt handler becomes a synthesised IPC send to the
// thread's handler, which is how L4 delivers device interrupts to
// user-level drivers. A thread without a handler cannot take one and is
// refused with ErrNotResponding.
func (k *Kernel) RegisterIRQ(line hw.IRQLine, tid ThreadID) error {
	t := k.Thread(tid)
	if t == nil {
		return ErrNoSuchThread
	}
	if t.Handler == nil {
		return ErrNotResponding
	}
	k.M.IRQ.SetHandler(line, func(l hw.IRQLine) {
		if t.Dead || t.Space.Dead {
			return // driver died; interrupt is dropped, kernel unharmed
		}
		// Interrupt IPC: conceptually from the "hardware thread".
		k.M.CPU.Charge(k.comp, trace.KIPCSend, 20)
		words := [1]uint64{uint64(l)}
		prev := k.M.CPU.PageTable()
		k.M.CPU.SwitchSpace(k.comp, &t.Space.PT)
		_, _ = k.deliver(t.Handler, NilThread, Msg{Label: LabelIRQ, Words: words[:]})
		if prev != nil {
			k.M.CPU.SwitchSpace(k.comp, prev)
		}
	})
	k.M.CPU.Work(k.comp, 100)
	return nil
}

// KillThread marks a thread dead (fault injection / crash): future IPC to
// it fails with ErrDeadPartner.
func (k *Kernel) KillThread(tid ThreadID) {
	t := k.Thread(tid)
	if t == nil || t.Dead {
		return
	}
	t.Dead = true
	t.Handler = nil
	k.uninstall(t)
	k.M.CPU.Charge(t.comp, trace.KFault, 0)
}

// KillSpace kills a whole protection domain: every thread in it dies, in
// thread-ID order, so the fault charges land in the same order every run.
// The dead space's page table stays as it was. Other spaces' mappings of
// shared frames are untouched — exactly the isolation property E4
// measures.
func (k *Kernel) KillSpace(s *Space) {
	if s.Dead {
		return
	}
	s.Dead = true
	for _, t := range k.threads[1:] {
		if t.Space == s {
			k.KillThread(t.ID)
		}
	}
	k.M.CPU.Charge(s.comp, trace.KFault, 0)
}

// Alive reports whether the thread exists and is not dead.
func (k *Kernel) Alive(tid ThreadID) bool {
	t := k.Thread(tid)
	return t != nil && !t.Dead && !t.Space.Dead
}
