package hw

import (
	"fmt"
	"math/bits"

	"vmmk/internal/trace"
)

// Machine bundles one complete simulated computer: architecture, clock,
// event queue, one or more CPUs, physical memory and interrupt controller.
// Both kernels boot on a Machine; the experiments instantiate one per
// platform under test.
//
// All CPUs share the clock, memory, recorder and IRQ controller; each CPU
// has its own privilege state and address-space root. CPU is the boot
// processor (CPUs[0]) and is what every uniprocessor code path uses, so a
// 1-CPU machine behaves exactly as it did before SMP support existed.
type Machine struct {
	Arch   *Arch
	Clock  *Clock
	Events *EventQueue
	CPU    *CPU   // boot processor, == CPUs[0]
	CPUs   []*CPU // all processors; len(CPUs) >= 1
	Mem    *PhysMem
	IRQ    *IRQController
	Rec    *trace.Recorder

	// Cfg is the fully normalized configuration the machine runs with
	// (defaults applied). A pool that recycles the machine sets it to the
	// configuration each Get asks for.
	Cfg MachineConfig

	// cpus is every CPU the machine has had, and CPUs its first Cfg.NCPUs.
	// A re-target to fewer CPUs hides the rest here for a later grow.
	cpus []*CPU

	pooled bool // held by a MachinePool: set by Put, cleared by Get
}

// MachineConfig sizes a Machine. A pooled machine takes any configuration
// (MachinePool).
type MachineConfig struct {
	Frames int // physical memory size in pages (default 4096)
	LogCap int // trace event log capacity (default 0 = counters only)
	NCPUs  int // processor count (default 1, at most MaxCPUs)
}

// MaxCPUs is the most processors a machine has: one per bit of a CPUSet.
const MaxCPUs = 64

// CPUSet is a set of a machine's CPUs: bit i stands for CPU i. Every
// cross-CPU operation that reaches several CPUs takes its targets as one
// CPUSet, passed by value.
type CPUSet uint64

// First returns the lowest CPU in a non-empty set.
func (s CPUSet) First() int { return bits.TrailingZeros64(uint64(s)) }

// IRQLines is every machine's interrupt-line count.
const IRQLines = 16

// normalized returns the config with defaults applied — the canonical form
// NewMachine builds from and a pool re-targets to. It panics when asked for
// more than MaxCPUs processors.
func (c *MachineConfig) normalized() MachineConfig {
	n := MachineConfig{Frames: 4096, NCPUs: 1}
	if c != nil {
		if c.Frames > 0 {
			n.Frames = c.Frames
		}
		if c.NCPUs > 0 {
			n.NCPUs = c.NCPUs
		}
		n.LogCap = c.LogCap
	}
	if n.NCPUs > MaxCPUs {
		panic(fmt.Sprintf("hw: %d CPUs, a machine has at most %d", n.NCPUs, MaxCPUs))
	}
	return n
}

// NewMachine builds a machine for arch. A nil cfg uses defaults. It
// panics when asked for more than MaxCPUs processors.
func NewMachine(arch *Arch, cfg *MachineConfig) *Machine {
	c := cfg.normalized()
	clock := &Clock{}
	rec := trace.NewRecorder(c.LogCap)
	mem := NewPhysMem(c.Frames, arch.PageSize())
	cpus := make([]*CPU, c.NCPUs)
	for i := range cpus {
		cpus[i] = NewCPUOn(arch, clock, mem, rec, i, c.NCPUs)
	}
	return &Machine{
		Arch:   arch,
		Clock:  clock,
		Events: NewEventQueue(clock),
		CPU:    cpus[0],
		CPUs:   cpus,
		Mem:    mem,
		IRQ:    newIRQController(cpus[0]),
		Rec:    rec,
		Cfg:    c,
		cpus:   cpus,
	}
}

// Reset restores the machine to its post-NewMachine state — clock at zero,
// empty event queue, every CPU at ring 0 with no address space, all memory
// free and zeroed, quiescent interrupt controller, zeroed recorder counters —
// without reallocating any of it. This is the machine-pool contract: an
// experiment cell run on a Reset machine is byte-identical to one run on a
// fresh machine. Interned component handles survive (they are identities in
// the recorder's registry, and components with zero cycles are invisible to
// every table query). The CPUs a re-target hid are not Reset: each was
// Reset by the Put that preceded the re-target that hid it, and nothing
// runs on it since.
func (m *Machine) Reset() {
	m.Events.Reset()
	m.Clock.Reset()
	for _, c := range m.CPUs {
		c.Reset()
	}
	m.Mem.Reset()
	m.IRQ.Reset()
	m.Rec.Reset()
}

// retarget makes a Reset machine what NewMachine(arch, &c) builds: the
// pool's hit path. An architecture of another value takes over the Arch
// pointer of the machine and of every CPU it has, hidden ones included;
// the memory takes the frame count and page size. A grow exposes hidden
// CPUs and then appends new ones, and on a multiprocessor every CPU gets
// its "cpu<n>.ipi" and "cpu<n>.shootdown" names, after every name the
// registry holds; a shrink hides CPUs. The recorder takes the log
// capacity. Everything the machine has grown stays: the frame table, the
// free stack's capacity, the contents buffers, the hidden CPUs and the
// recorder's interned names, which no query reads until they are charged.
func (m *Machine) retarget(arch *Arch, c MachineConfig) {
	m.Mem.resize(c.Frames, arch.PageSize())
	if *m.Arch != *arch {
		m.Arch = arch
		for _, cpu := range m.cpus {
			cpu.Arch = arch
		}
	}
	for i := len(m.cpus); i < c.NCPUs; i++ {
		m.cpus = append(m.cpus, NewCPUOn(m.Arch, m.Clock, m.Mem, m.Rec, i, c.NCPUs))
	}
	m.CPUs = m.cpus[:c.NCPUs]
	if c.NCPUs > 1 {
		for _, cpu := range m.CPUs {
			cpu.internSMP()
		}
	}
	m.Rec.SetLogCap(c.LogCap)
	m.Cfg = c
}

// Now returns the machine's virtual time.
func (m *Machine) Now() Cycles { return m.Clock.Now() }

// RunUntilIdle drains the event queue completely (advancing the clock to
// each event in turn), bounded by maxEvents (0 = unlimited).
func (m *Machine) RunUntilIdle(maxEvents int) int { return m.Events.RunUntilIdle(maxEvents) }

// PumpIO drives the machine until quiescent or maxRounds: fire every due
// scheduled event, then dispatch pending interrupts, charging each dispatch
// to comp — the idle loop of whichever kernel fields the interrupts. It
// returns the total number of events plus interrupts processed.
func (m *Machine) PumpIO(comp trace.Comp, maxRounds int) int {
	total := 0
	for range maxRounds {
		n := m.Events.RunUntilIdle(1024)
		n += m.IRQ.DispatchPending(comp)
		total += n
		if n == 0 {
			break
		}
	}
	return total
}

// NCPUs returns the processor count.
func (m *Machine) NCPUs() int { return len(m.CPUs) }

// AllCPUs returns the set of every CPU of the machine.
func (m *Machine) AllCPUs() CPUSet { return CPUSet(1)<<len(m.CPUs) - 1 }

// checkCPU panics on an out-of-range CPU index — always a kernel bug, the
// moral equivalent of programming a nonexistent APIC ID.
func (m *Machine) checkCPU(i int) *CPU {
	if i < 0 || i >= len(m.CPUs) {
		panic("hw: CPU index out of range")
	}
	return m.CPUs[i]
}

// SendIPI sends one inter-processor interrupt from CPU from to CPU to,
// charging the sender's APIC write plus interrupt latency to the sender's
// "cpu<from>.ipi" component and the target's acceptance to
// "cpu<to>.ipi". Sending to yourself is free and uncounted (kernels
// short-circuit self-IPIs), so uniprocessor paths may call this blindly.
func (m *Machine) SendIPI(from, to int) { m.SendIPIN(from, to, 1) }

// SendIPIN sends n back-to-back IPIs from CPU from to CPU to as one
// aggregate — same counters, cycles and clock movement as n SendIPI calls.
// Self-IPIs remain free and uncounted.
func (m *Machine) SendIPIN(from, to int, n uint64) {
	src := m.checkCPU(from)
	dst := m.checkCPU(to)
	if src == dst {
		return
	}
	m.IRQ.deliverIPIN(src, dst, n)
}

// Shootdown charges n TLB invalidations initiated back-to-back by CPU
// from on every CPU in cpus but itself, in ascending order: each target
// takes n IPIs and charges its handling of each to its own
// "cpu<n>.shootdown" component, landed as aggregates. The initiator
// invalidates locally, not by IPI, so callers may pass a set that holds
// it. The IPI round trip dominates — the reason real kernels batch
// invalidations — so a full flush and one entry cost the same, and the
// refill misses a flush causes are not modelled. Counters, cycle totals
// and clock movement match n calls with n = 1; only log timestamps
// coalesce (an aggregate is stamped at its last event). n == 0 costs
// nothing and checks nothing.
func (m *Machine) Shootdown(from int, cpus CPUSet, n uint64) {
	if n == 0 {
		return
	}
	src := m.checkCPU(from)
	if cpus&^m.AllCPUs() != 0 {
		panic("hw: CPU index out of range")
	}
	for targets := cpus &^ (1 << from); targets != 0; targets &= targets - 1 {
		dst := m.CPUs[targets.First()]
		m.IRQ.deliverIPIN(src, dst, n)
		dst.ChargeN(dst.shootComp, trace.KTLBShootdown, m.Arch.Costs.TLBShootdown, n)
	}
}
