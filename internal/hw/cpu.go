package hw

import (
	"fmt"

	"vmmk/internal/trace"
)

// Priv is a privilege ring. Ring0 is most privileged (the kernel or
// monitor); Ring1 hosts paravirtualised guest kernels under the VMM; Ring3
// is user code.
type Priv uint8

// Privilege rings.
const (
	Ring0 Priv = iota
	Ring1
	Ring2
	Ring3
)

// String returns the ring's conventional name ("ring0" … "ring3").
func (p Priv) String() string { return fmt.Sprintf("ring%d", uint8(p)) }

// SegReg indexes the six x86 segment registers.
type SegReg int

// x86 segment registers. Traps reload only CS and SS — the property the
// paper's §3.2 fast-path argument hinges on.
const (
	SegCS SegReg = iota
	SegSS
	SegDS
	SegES
	SegFS
	SegGS
	NumSegRegs
)

var segNames = [NumSegRegs]string{"cs", "ss", "ds", "es", "fs", "gs"}

// String returns the segment register's x86 mnemonic.
func (s SegReg) String() string {
	if s >= 0 && s < NumSegRegs {
		return segNames[s]
	}
	return fmt.Sprintf("seg(%d)", int(s))
}

// Segment is one segment descriptor: a base/limit window with a privilege
// level. On architectures without segmentation the selectors stay zeroed
// and are ignored.
type Segment struct {
	Base  uint64
	Limit uint64 // highest valid offset; a flat segment has Limit = ^0
	DPL   Priv
}

// Covers reports whether the linear address range of the segment reaches
// addr (i.e. addr is accessible through it).
func (s Segment) Covers(addr uint64) bool {
	return addr >= s.Base && addr-s.Base <= s.Limit
}

// CPU is one simulated processor: privilege state, segment state, the
// current address-space root, and the charging helpers every kernel path
// uses to account cycles. A Machine has one or more CPUs sharing its clock,
// memory and recorder; CPU 0 is the boot processor that every uniprocessor
// code path runs on. A CPU keeps no TLB contents: every TLB operation is a
// flat charge (SwitchSpace's untagged flush, FlushTLB, FlushTLBEntry,
// Translate's walk, and Machine.Shootdown, whose targets are a CPUSet).
type CPU struct {
	Arch  *Arch
	Clock *Clock
	Mem   *PhysMem
	Rec   *trace.Recorder

	// Index is the CPU's position in its Machine's CPU slice and its bit
	// in a CPUSet; 0 is the boot processor.
	Index int

	ring Priv
	pt   *PageTable
	segs [NumSegRegs]Segment

	cache *Cache // optional cache-footprint model (AttachCache)

	// SMP attribution handles ("cpu<n>.ipi", "cpu<n>.shootdown"),
	// charged only by the cross-CPU paths. Only a multiprocessor interns
	// them: a uniprocessor's self-IPI is free and it has no other CPU to
	// shoot down, so a booted uniprocessor's handles stay CompNone, and a
	// pooled machine shrunk to one CPU never charges its boot CPU's.
	ipiComp   trace.Comp
	shootComp trace.Comp
}

// NewCPUOn wires CPU number index of an ncpus-CPU machine to its
// substrate. All CPUs of a machine share the clock, memory and recorder.
func NewCPUOn(arch *Arch, clock *Clock, mem *PhysMem, rec *trace.Recorder, index, ncpus int) *CPU {
	c := &CPU{
		Arch:  arch,
		Clock: clock,
		Mem:   mem,
		Rec:   rec,
		Index: index,
		ring:  Ring0,
	}
	if ncpus > 1 {
		c.internSMP()
	}
	return c
}

// internSMP interns the CPU's SMP attribution handles, unless it has them:
// a pooled uniprocessor's boot CPU gets them when its machine grows.
func (c *CPU) internSMP() {
	if c.ipiComp == trace.CompNone {
		c.ipiComp = c.Rec.Intern(fmt.Sprintf("cpu%d.ipi", c.Index))
		c.shootComp = c.Rec.Intern(fmt.Sprintf("cpu%d.shootdown", c.Index))
	}
}

// Reset restores the CPU to its post-NewCPUOn state: ring 0, no address
// space, zeroed segments and no cache model. The interned attribution
// handles survive — they are registry identities, not state.
func (c *CPU) Reset() {
	c.ring = Ring0
	c.pt = nil
	c.segs = [NumSegRegs]Segment{}
	c.cache = nil
}

// Ring returns the current privilege level.
func (c *CPU) Ring() Priv { return c.ring }

// SetRing changes privilege directly; kernels use Trap/ReturnTo for the
// accounted transitions and this only for initial setup.
func (c *CPU) SetRing(p Priv) { c.ring = p }

// PageTable returns the active address-space root (nil before the first
// SwitchSpace).
func (c *CPU) PageTable() *PageTable { return c.pt }

// Charge advances the clock by cost, attributes it to component and counts
// kind. It is the single point through which all accounted events flow.
func (c *CPU) Charge(component trace.Comp, kind trace.Kind, cost Cycles) {
	c.Clock.advance(cost)
	c.Rec.Charge(uint64(c.Clock.Now()), kind, component, uint64(cost))
}

// Work advances the clock by cost and attributes it to component without
// counting a kernel event — ordinary computation.
func (c *CPU) Work(component trace.Comp, cost Cycles) {
	c.Clock.advance(cost)
	c.Rec.ChargeCycles(component, uint64(cost))
}

// ChargeN advances the clock by n events of cost each and lands them in the
// recorder as one aggregate (one log record carrying the count). Counters
// and the cycle ledger end up exactly as n Charge calls would leave them —
// the batched hot path for uniform loops.
func (c *CPU) ChargeN(component trace.Comp, kind trace.Kind, cost Cycles, n uint64) {
	if n == 0 {
		return
	}
	c.Clock.advance(cost * Cycles(n))
	c.Rec.ChargeN(uint64(c.Clock.Now()), kind, component, uint64(cost), n)
}

// WorkN advances the clock by n×cost of uncounted computation in one step.
func (c *CPU) WorkN(component trace.Comp, cost Cycles, n uint64) {
	if n == 0 {
		return
	}
	c.Clock.advance(cost * Cycles(n))
	c.Rec.ChargeCycles(component, uint64(cost)*n)
}

// Trap enters ring 0 from the current ring, charging kernel-entry cost to
// component. fast selects the sysenter-style entry when the architecture
// has one.
func (c *CPU) Trap(component trace.Comp, fast bool) {
	cost := c.Arch.Costs.KernelEntry
	if fast && c.Arch.HasFastSyscall {
		cost = c.Arch.Costs.FastSyscall
	}
	c.ring = Ring0
	c.Charge(component, trace.KTrap, cost)
}

// ReturnTo leaves ring 0 for the given ring, charging kernel-exit cost.
func (c *CPU) ReturnTo(component trace.Comp, p Priv) {
	c.ring = p
	c.Charge(component, trace.KKernelExit, c.Arch.Costs.KernelExit)
}

// TrapReturnN charges n complete trap/return round trips (enter ring 0,
// leave for ring p) as two aggregate events. It is the batched form of n
// Trap/ReturnTo pairs for loops whose bodies do nothing else privileged:
// counters, cycle totals and the final ring all match the per-item loop.
func (c *CPU) TrapReturnN(component trace.Comp, fast bool, p Priv, n uint64) {
	if n == 0 {
		return
	}
	entry := c.Arch.Costs.KernelEntry
	if fast && c.Arch.HasFastSyscall {
		entry = c.Arch.Costs.FastSyscall
	}
	c.ChargeN(component, trace.KTrap, entry, n)
	c.ring = p
	c.ChargeN(component, trace.KKernelExit, c.Arch.Costs.KernelExit, n)
}

// LoadSegment loads a segment register, charging descriptor-check cost. On
// a non-segmented architecture it charges nothing and stores nothing.
func (c *CPU) LoadSegment(component trace.Comp, r SegReg, s Segment) {
	if !c.Arch.HasSegmentation {
		return
	}
	c.segs[r] = s
	c.Work(component, c.Arch.Costs.SegmentReload)
}

// SegmentsExclude reports whether every currently-loaded data segment
// (those a trap does NOT reload) keeps the region [base, ~0] unreachable.
// This is the protection precondition for Xen's trap-gate syscall shortcut:
// since x86 traps reload only CS and SS, the remaining four selectors must
// already exclude the monitor's address range or guest code could touch it
// while running with the gate's privileges.
func (c *CPU) SegmentsExclude(base uint64) bool {
	if !c.Arch.HasSegmentation {
		return false // no segment limits -> no way to carve out the range
	}
	for r := SegDS; r <= SegGS; r++ {
		s := c.segs[r]
		if s.Limit == 0 && s.Base == 0 {
			continue // null selector, inaccessible
		}
		if s.Covers(base) {
			return false
		}
	}
	return true
}

// SwitchSpace makes pt the active address space. On an untagged TLB this
// costs a full flush; with ASIDs only the root write. Component is charged.
func (c *CPU) SwitchSpace(component trace.Comp, pt *PageTable) {
	if pt == c.pt {
		return
	}
	c.pt = pt
	c.Work(component, c.Arch.Costs.ASSwitch)
	if !c.Arch.HasASID {
		c.FlushTLB(component)
	}
	c.CacheRun(component, pt.ASID())
}

// FlushTLB charges a full TLB flush (shootdown after unmap, page flip,
// etc.).
func (c *CPU) FlushTLB(component trace.Comp) {
	c.Charge(component, trace.KTLBFlush, c.Arch.Costs.TLBFlushAll)
}

// FlushTLBEntry charges the invalidation of one entry.
func (c *CPU) FlushTLBEntry(component trace.Comp) {
	c.Work(component, c.Arch.Costs.TLBFlushEntry)
}

// TranslateResult describes the outcome of an address translation.
type TranslateResult int

// Translation outcomes.
const (
	XlateOK TranslateResult = iota
	XlateNoMapping
	XlateProtection
	XlatePrivilege
)

// String names the translation outcome.
func (r TranslateResult) String() string {
	switch r {
	case XlateOK:
		return "ok"
	case XlateNoMapping:
		return "no-mapping"
	case XlateProtection:
		return "protection"
	case XlatePrivilege:
		return "privilege"
	}
	return "invalid"
}

// Translate resolves vpn in the active space with the wanted access,
// charging a TLB miss's page walk (or software refill trap) to component:
// a CPU caches no translation, so every call walks. A failed translation
// is the hardware half of a page fault; the caller (kernel) decides what
// happens next.
func (c *CPU) Translate(component trace.Comp, vpn VPN, want Perm) (PTE, TranslateResult) {
	if c.pt == nil {
		return PTE{}, XlateNoMapping
	}
	walk := c.Arch.Costs.TLBMiss + Cycles(c.Arch.PTLevels)*c.Arch.Costs.PTEUpdate/4
	c.Charge(component, trace.KTLBMiss, walk)
	e, ok := c.pt.Lookup(vpn)
	if !ok {
		return PTE{}, XlateNoMapping
	}
	if !e.Perms.Allows(want) {
		return e, XlateProtection
	}
	if c.ring == Ring3 && !e.User {
		return e, XlatePrivilege
	}
	return e, XlateOK
}

// CopyCost returns the cycle cost of copying n bytes, per the arch's
// per-word copy cost.
func (c *CPU) CopyCost(n uint64) Cycles {
	words := (n + uint64(c.Arch.WordBytes()) - 1) / uint64(c.Arch.WordBytes())
	return Cycles(words) * c.Arch.Costs.MemCopyWord
}
