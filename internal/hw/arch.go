package hw

// Cycles counts virtual CPU cycles, the only notion of time in the
// simulation.
type Cycles uint64

// CostModel gives the cycle cost of each primitive hardware operation for
// one architecture. Values are calibrated to the published numbers the
// paper's debate relies on (see DESIGN.md); experiments depend on their
// ratios, not their absolute magnitudes.
type CostModel struct {
	KernelEntry   Cycles // trap/interrupt entry to ring 0
	KernelExit    Cycles // return to user
	FastSyscall   Cycles // sysenter/epc-style entry, if the arch has one
	PrivCheck     Cycles // privilege/validity check in the kernel
	ASSwitch      Cycles // address-space root switch (CR3/TTBR write)
	TLBFlushAll   Cycles // full unselective TLB flush
	TLBFlushEntry Cycles // single-entry invalidation
	TLBMiss       Cycles // hardware or software refill of one entry
	MemCopyWord   Cycles // copy cost per machine word
	PTEUpdate     Cycles // validated page-table entry write
	IRQDispatch   Cycles // interrupt acceptance and vectoring
	WorldSwitch   Cycles // extra state save/restore for a cross-VM switch
	SegmentReload Cycles // segment register load incl. descriptor check
	DeviceMMIO    Cycles // one device register access
	CtxSave       Cycles // register file save or restore
	IPI           Cycles // send one inter-processor interrupt (sender side)
	TLBShootdown  Cycles // remote-CPU shootdown handling, per target CPU
}

// Arch describes one hardware platform. The microkernel's portability claim
// (paper §2.2: "software written for L4 naturally runs on nine different
// processor platforms") is exercised by instantiating the same components
// over each of these descriptors.
type Arch struct {
	Name      string
	WordBits  int
	PageShift uint // log2 of the page size

	// HasASID: the TLB is tagged with address-space IDs, so an address
	// space switch needs no flush. x86 of the paper's era lacked this.
	HasASID bool
	// HasSegmentation: the arch has loadable segment registers with limit
	// checks. Only x86; Xen's trap-gate syscall shortcut depends on it.
	HasSegmentation bool
	// HasFastSyscall: a sysenter-like kernel entry exists.
	HasFastSyscall bool
	// SyscallInstr names the native syscall trap mechanism; differences
	// across architectures feed the E6 portability census.
	SyscallInstr string
	// PTLevels is the native page-table depth (0 = software-loaded TLB).
	PTLevels int
	// RegisterIPCWords is how many message words fit in registers for a
	// short IPC without touching memory.
	RegisterIPCWords int
	// BigEndian is part of the raw-interface delta for E6.
	BigEndian bool

	Costs CostModel
}

// PageSize returns the page size in bytes.
func (a *Arch) PageSize() uint64 { return 1 << a.PageShift }

// WordBytes returns the machine word size in bytes.
func (a *Arch) WordBytes() int { return a.WordBits / 8 }

// baseCosts is the x86 reference cost model; other architectures scale or
// override individual entries.
func baseCosts() CostModel {
	return CostModel{
		KernelEntry:   150,
		KernelExit:    120,
		FastSyscall:   70,
		PrivCheck:     10,
		ASSwitch:      500,
		TLBFlushAll:   400,
		TLBFlushEntry: 40,
		TLBMiss:       60,
		MemCopyWord:   1,
		PTEUpdate:     30,
		IRQDispatch:   200,
		WorldSwitch:   1800,
		SegmentReload: 40,
		DeviceMMIO:    120,
		CtxSave:       90,
		IPI:           700,
		TLBShootdown:  450,
	}
}

// X86 is the paper-era 32-bit x86: untagged TLB, six segment registers of
// which traps reload two, int 0x80 syscalls. This is the architecture every
// concrete argument in the paper (trap gates, glibc TLS segments, Xen's
// fast path) is about.
func X86() *Arch {
	return &Arch{
		Name: "x86", WordBits: 32, PageShift: 12,
		HasASID: false, HasSegmentation: true,
		HasFastSyscall: true, SyscallInstr: "int/sysenter",
		PTLevels: 2, RegisterIPCWords: 3, BigEndian: false,
		Costs: baseCosts(),
	}
}

// AMD64 models early x86-64: flat segmentation (no limit checks, so no
// trap-gate shortcut), still no tagged TLB.
func AMD64() *Arch {
	c := baseCosts()
	c.FastSyscall = 60
	return &Arch{
		Name: "amd64", WordBits: 64, PageShift: 12,
		HasASID: false, HasSegmentation: false,
		HasFastSyscall: true, SyscallInstr: "syscall",
		PTLevels: 4, RegisterIPCWords: 6, BigEndian: false,
		Costs: c,
	}
}

// ARM models ARMv5/v6 embedded cores with ASID-tagged TLBs (fast address
// space switch) and swi traps.
func ARM() *Arch {
	c := baseCosts()
	c.KernelEntry, c.KernelExit = 90, 70
	c.ASSwitch, c.TLBFlushAll = 120, 300
	return &Arch{
		Name: "arm", WordBits: 32, PageShift: 12,
		HasASID: true, HasSegmentation: false,
		HasFastSyscall: false, SyscallInstr: "swi",
		PTLevels: 2, RegisterIPCWords: 4, BigEndian: false,
		Costs: c,
	}
}

// PPC32 models 32-bit PowerPC with a hashed page table and segment-register
// style ASIDs.
func PPC32() *Arch {
	c := baseCosts()
	c.KernelEntry, c.KernelExit = 110, 90
	c.ASSwitch = 150
	return &Arch{
		Name: "ppc32", WordBits: 32, PageShift: 12,
		HasASID: true, HasSegmentation: false,
		HasFastSyscall: false, SyscallInstr: "sc",
		PTLevels: 1, RegisterIPCWords: 8, BigEndian: true,
		Costs: c,
	}
}

// PPC64 models large multiprocessor PowerPC, the upper end of the paper's
// "nine platforms" span.
func PPC64() *Arch {
	c := baseCosts()
	c.KernelEntry, c.KernelExit = 100, 80
	c.ASSwitch = 140
	c.MemCopyWord = 1
	return &Arch{
		Name: "ppc64", WordBits: 64, PageShift: 16,
		HasASID: true, HasSegmentation: false,
		HasFastSyscall: false, SyscallInstr: "sc",
		PTLevels: 1, RegisterIPCWords: 8, BigEndian: true,
		Costs: c,
	}
}

// Itanium models IA-64 with region-ID tagged TLB and epc fast entry.
func Itanium() *Arch {
	c := baseCosts()
	c.KernelEntry, c.KernelExit = 200, 150
	c.FastSyscall = 40 // epc promotion is famously cheap
	c.ASSwitch = 100
	return &Arch{
		Name: "itanium", WordBits: 64, PageShift: 14,
		HasASID: true, HasSegmentation: false,
		HasFastSyscall: true, SyscallInstr: "epc/break",
		PTLevels: 3, RegisterIPCWords: 8, BigEndian: false,
		Costs: c,
	}
}

// MIPS64 models R4000-style software-loaded TLBs with ASIDs.
func MIPS64() *Arch {
	c := baseCosts()
	c.KernelEntry, c.KernelExit = 80, 60
	c.TLBMiss = 120 // software refill handler
	c.ASSwitch = 60
	return &Arch{
		Name: "mips64", WordBits: 64, PageShift: 12,
		HasASID: true, HasSegmentation: false,
		HasFastSyscall: false, SyscallInstr: "syscall",
		PTLevels: 0, RegisterIPCWords: 8, BigEndian: true,
		Costs: c,
	}
}

// Alpha models 21264-class machines with PALcode kernel entry.
func Alpha() *Arch {
	c := baseCosts()
	c.KernelEntry, c.KernelExit = 70, 50
	c.ASSwitch = 80
	return &Arch{
		Name: "alpha", WordBits: 64, PageShift: 13,
		HasASID: true, HasSegmentation: false,
		HasFastSyscall: false, SyscallInstr: "call_pal",
		PTLevels: 3, RegisterIPCWords: 6, BigEndian: false,
		Costs: c,
	}
}

// SPARC64 models UltraSPARC with register windows (expensive context save)
// and MMU contexts.
func SPARC64() *Arch {
	c := baseCosts()
	c.CtxSave = 250 // register-window spill
	c.ASSwitch = 90
	return &Arch{
		Name: "sparc64", WordBits: 64, PageShift: 13,
		HasASID: true, HasSegmentation: false,
		HasFastSyscall: false, SyscallInstr: "ta",
		PTLevels: 0, RegisterIPCWords: 6, BigEndian: true,
		Costs: c,
	}
}

// AllArchs returns the nine supported platforms, mirroring the nine L4
// ports the paper cites. The slice is freshly allocated; callers may mutate
// the descriptors (e.g. to ablate ASID support).
func AllArchs() []*Arch {
	return []*Arch{X86(), AMD64(), ARM(), PPC32(), PPC64(), Itanium(), MIPS64(), Alpha(), SPARC64()}
}
