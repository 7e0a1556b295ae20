package vmm

import (
	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// This file implements exception virtualisation (paper primitives 1, 2 and
// 7) and the x86 trap-gate syscall shortcut whose fragility the paper's
// §3.2 dissects:
//
//	"Xen provides a shortcut based on x86's trap gates that avoids
//	invoking the VMM on guest system calls. However, this shortcut is
//	specifically targeted and limited to Linux's int 0x80 system-call
//	variant and restricts the use of segments. Protection can only be
//	preserved if all active segment configurations explicitly exclude
//	the VMM kernel. Since x86's trap mechanism only reloads two of the
//	six segment selectors, the solution is limited; Linux's latest
//	glibc violates the assumption and renders the shortcut useless."
//
// The model: a domain's fast path is valid while every guest data segment
// excludes [VMMBase, ∞). Loading a flat segment (glibc's TLS setup does
// exactly this) invalidates it, and every subsequent syscall takes the
// bounced path through the monitor.

// EnableFastPath registers the guest's trap gate and (re)computes the
// segment precondition. Returns whether the fast path is active.
func (h *Hypervisor) EnableFastPath(dom DomID) (bool, error) {
	d, err := h.lookup(dom)
	if err != nil {
		return false, err
	}
	h.hypercallEntry(d)
	defer h.hypercallExit()
	if !h.M.Arch.HasSegmentation || !h.FastPathPolicy {
		d.fastPathOK = false
		return false, nil
	}
	d.fastPathOK = h.M.CPU.SegmentsExclude(VMMBase)
	return d.fastPathOK, nil
}

// LoadGuestSegment virtualises a guest segment-register load (the guest
// updates its GDT/LDT via hypercall, then reloads the selector). The
// monitor re-validates the fast-path precondition: one flat segment kills
// the shortcut for the whole domain.
func (h *Hypervisor) LoadGuestSegment(dom DomID, reg hw.SegReg, seg hw.Segment) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	h.hypercallEntry(d) // update_descriptor hypercall
	h.M.CPU.LoadSegment(d.comp, reg, seg)
	if d.fastPathOK && !h.M.CPU.SegmentsExclude(VMMBase) {
		d.fastPathOK = false
	}
	h.hypercallExit()
	return nil
}

// FastPathActive reports whether the domain's syscall shortcut is live.
func (h *Hypervisor) FastPathActive(dom DomID) bool {
	d := h.dom(dom)
	return d != nil && d.fastPathOK && h.FastPathPolicy
}

// GuestSyscall executes one guest system call. Two paths exist:
//
// Fast path (trap gate): ring 3 -> ring 1 directly, the monitor never
// runs. Costs one gate entry plus the guest kernel's own work, essentially
// native. Counted as KSyscallFastPath + the guest-u2k/k2u pair.
//
// Bounced path: ring 3 -> ring 0 (monitor) -> ring 1 (guest kernel) ->
// ring 0 -> ring 3. The monitor pays entry, validation and two transitions;
// this is the "IPC operation between the guest application and the guest
// OS" the paper identifies.
//
// The returned values are whatever the guest kernel's OnSyscall produced.
func (h *Hypervisor) GuestSyscall(dom DomID, no uint32, args []uint64) ([]uint64, error) {
	d, err := h.lookup(dom)
	if err != nil {
		return nil, err
	}
	h.switchTo(d)

	fast := d.fastPathOK && h.FastPathPolicy && h.M.Arch.HasSegmentation
	if fast {
		// Trap gate: direct ring3 -> ring1 transition at hardware trap
		// cost, charged to the *guest*, since the monitor is not involved.
		h.M.CPU.Charge(d.comp, trace.KSyscallFastPath, h.M.Arch.Costs.KernelEntry)
		h.M.CPU.SetRing(hw.Ring1)
	} else {
		// Bounce: monitor entry, validation, reflected into the guest
		// kernel (primitive 7), which is an accounted exception bounce.
		h.M.CPU.Trap(h.comp, false)
		h.M.CPU.Work(h.comp, h.M.Arch.Costs.PrivCheck)
		h.M.CPU.Charge(h.comp, trace.KExceptionBounce, h.M.Arch.Costs.CtxSave)
		h.M.CPU.ReturnTo(h.comp, hw.Ring1)
	}
	h.M.CPU.Charge(d.comp, trace.KGuestUserToKernel, 0)

	// Guest kernel executes the system call.
	var ret []uint64
	if d.Hooks.OnSyscall != nil {
		ret = d.Hooks.OnSyscall(no, args)
	}

	// Return to guest user (primitive 2). The fast path irets directly;
	// the bounced path needs the monitor again for the privileged iret.
	if fast {
		h.M.CPU.Charge(d.comp, trace.KGuestKernelToUser, h.M.Arch.Costs.KernelExit)
		h.M.CPU.SetRing(hw.Ring3)
	} else {
		h.M.CPU.Trap(h.comp, h.M.Arch.HasFastSyscall)
		h.M.CPU.ReturnTo(h.comp, hw.Ring3)
		h.M.CPU.Charge(d.comp, trace.KGuestKernelToUser, 0)
	}
	return ret, nil
}

// GuestException reflects a guest-application exception (page fault,
// divide error, …) into the guest kernel: paper primitive 7 ("page-fault
// and exception handling via exception virtualisation"). The handler
// argument is the guest kernel's response; a nil handler models an
// unhandled exception and returns false.
func (h *Hypervisor) GuestException(dom DomID, handle func()) (bool, error) {
	d, err := h.lookup(dom)
	if err != nil {
		return false, err
	}
	h.switchTo(d)
	// Exceptions always enter the monitor first (no gate shortcut: the
	// monitor must see faults to maintain its own invariants).
	h.M.CPU.Trap(h.comp, false)
	h.M.CPU.Charge(h.comp, trace.KExceptionBounce, h.M.Arch.Costs.CtxSave)
	h.M.CPU.ReturnTo(h.comp, hw.Ring1)
	if handle == nil {
		return false, nil
	}
	handle()
	h.M.CPU.Trap(h.comp, h.M.Arch.HasFastSyscall)
	h.M.CPU.ReturnTo(h.comp, hw.Ring3)
	return true, nil
}

// VirtDeviceOp models an access to a monitor-provided virtual device
// (paper primitive 10: "a set of common devices, such as NIC and disk").
// In Xen proper the split-driver model pushes most of this to Dom0, but
// the monitor still owns the console, the domain control interface and
// emergency devices.
func (h *Hypervisor) VirtDeviceOp(dom DomID, cost hw.Cycles) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	h.hypercallEntry(d)
	defer h.hypercallExit()
	h.M.CPU.Charge(h.comp, trace.KVirtDeviceOp, h.M.Arch.Costs.DeviceMMIO+cost)
	return nil
}
