package hw

import (
	"fmt"

	"vmmk/internal/trace"
)

// IRQLine is a physical interrupt line number.
type IRQLine int

// Handler receives a dispatched interrupt.
type Handler func(line IRQLine)

// IRQController models a simple PIC/APIC: lines are raised by devices and
// dispatched in ascending line order (fixed priority) when the kernel
// asks. Dispatch is explicit rather than preemptive: the kernels poll at
// their scheduling points, which matches how the simulation serialises
// work and keeps traces deterministic.
//
// On a multi-CPU machine the controller doubles as the local-APIC mesh:
// external device interrupts are routed to the boot CPU (CPUs[0], the
// common x86 arrangement of the paper's era), while inter-processor
// interrupts go point-to-point between any two CPUs via Machine.SendIPIN.
type IRQController struct {
	cpu      *CPU       // boot CPU: fields all external interrupts
	comp     trace.Comp // "hw.irq", interned at construction
	pending  [IRQLines]bool
	handlers [IRQLines]Handler
}

// newIRQController returns a controller with IRQLines lines, none pending
// and without handlers, fielding external interrupts on the boot CPU. (IPIs
// are point-to-point — deliverIPIN takes both endpoints — so the
// controller itself only needs the boot CPU.)
func newIRQController(boot *CPU) *IRQController {
	return &IRQController{cpu: boot, comp: boot.Rec.Intern("hw.irq")}
}

// SetHandler installs the kernel's handler for a line.
func (ic *IRQController) SetHandler(line IRQLine, h Handler) {
	ic.check(line)
	ic.handlers[line] = h
}

// Raise asserts a line (typically from a device completion event). The
// event is recorded; delivery happens at the next DispatchPending.
func (ic *IRQController) Raise(line IRQLine) {
	ic.check(line)
	ic.pending[line] = true
	ic.cpu.Charge(ic.comp, trace.KIRQ, 0)
}

// Pending reports whether a line is asserted.
func (ic *IRQController) Pending(line IRQLine) bool {
	ic.check(line)
	return ic.pending[line]
}

// DispatchPending delivers every pending line in ascending order,
// charging dispatch cost to component per delivery. Lines without handlers
// are spurious: they are cleared without a delivery. It returns the number
// delivered.
func (ic *IRQController) DispatchPending(component trace.Comp) int {
	n := 0
	for i := range IRQLines {
		if !ic.pending[i] {
			continue
		}
		ic.pending[i] = false
		h := ic.handlers[i]
		if h == nil {
			continue
		}
		ic.cpu.Charge(component, trace.KIRQ, ic.cpu.Arch.Costs.IRQDispatch)
		h(IRQLine(i))
		n++
	}
	return n
}

// deliverIPIN is the inter-processor interrupt path (Machine.SendIPIN and
// Machine.Shootdown route through it), for n back-to-back IPIs between
// the same two CPUs as one aggregate: the sender pays the APIC write plus
// the cross-CPU interrupt latency, the target pays acceptance and
// vectoring. Both halves advance the one shared clock — the simulation
// serialises the machine — but each half lands on its own CPU's component
// ("cpu<n>.ipi"), so the E12 tables can show where the SMP tax falls.
func (ic *IRQController) deliverIPIN(src, dst *CPU, n uint64) {
	src.ChargeN(src.ipiComp, trace.KIPI, src.Arch.Costs.IPI, n)
	dst.WorkN(dst.ipiComp, dst.Arch.Costs.IRQDispatch, n)
}

// Reset restores the controller to its post-newIRQController state: no
// pending lines and no handlers.
func (ic *IRQController) Reset() {
	ic.pending = [IRQLines]bool{}
	ic.handlers = [IRQLines]Handler{}
}

func (ic *IRQController) check(line IRQLine) {
	if line < 0 || line >= IRQLines {
		panic(fmt.Sprintf("hw: IRQ line %d out of range (%d lines)", line, IRQLines))
	}
}
