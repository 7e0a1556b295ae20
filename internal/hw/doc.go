// Package hw simulates the hardware substrate both kernels run on: one or
// more CPUs with privilege rings and (on x86) segmentation, an MMU with
// page tables whose TLB costs are flat charges, physical memory with frame
// ownership, an interrupt controller doubling as the IPI mesh, and a
// discrete-event queue driving devices (hw/dev).
//
// Nothing here executes real instructions. The simulation is a cycle
// accounting model: every privileged operation advances a virtual clock by
// an architecture-specific cost (CostModel) and records the event in a
// trace.Recorder. The paper's claims are about counts of privileged
// crossings and their relative costs, so this level of fidelity is exactly
// what the experiments need, and it is fully deterministic. Nine Arch
// descriptors (AllArchs) capture what the portability and fast-path
// arguments depend on: segmentation, ASID-tagged TLBs, page-table depth,
// trap mechanisms, endianness, word width.
//
// Only package hw moves the clock, in two ways. A CPU's four charging
// helpers (Charge, Work, ChargeN and WorkN) advance it by exactly the cost
// they record, so every cycle that passes on a CPU is charged to some
// component; and the event queue skips idle time to the next event's
// cycle (RunUntilIdle, and RunUntil, the one way to step the clock to a
// given cycle). Device DMA is the one recorder charge that leaves the
// clock alone (see hw/dev).
//
// Multiprocessor model: a Machine may have up to MaxCPUs CPUs
// (MachineConfig.NCPUs) sharing the clock, memory, recorder and IRQ
// controller; each CPU keeps private privilege state and address-space
// root. A set of CPUs is a CPUSet, one machine word with bit i for CPU i,
// and AllCPUs is every CPU of a machine. Cross-CPU coordination is
// explicit and charged: SendIPIN delivers n inter-processor interrupts
// between two CPUs (SendIPI delivers one), the cost split between the
// "cpu<n>.ipi" components of sender and target, and Shootdown(from, cpus,
// n) interrupts every CPU of a CPUSet but the initiator, in ascending
// order, to charge n TLB invalidations to each ("cpu<n>.shootdown"); a set
// naming a CPU the machine lacks panics before any IPI is sent. No CPU
// keeps TLB contents: a flush, local or remote, is a charge, not a change
// of state, and Translate walks the page table on every call. CPU 0 is
// the boot processor every uniprocessor path uses, so a 1-CPU machine —
// the configuration experiments E1–E11 always run — behaves bit-for-bit
// as it did before SMP support existed; only experiment E12 sweeps NCPUs.
//
// Physical memory (PhysMem) is a frame allocator whose owners are the
// trace.Comp handles of the components holding the frames. The frame table
// is the only record of who owns what: OwnedBy counts an owner's frames by
// scanning it, for tests, and each kernel keeps its own resident count. It keeps per-frame state only below a watermark: Alloc
// pops the LIFO of freed frames, or else hands out the watermark frame and
// advances it, which is the ID sequence a full free stack would yield, and
// AllocN takes the same IDs in one pass. So a boot costs nothing per
// installed frame and Reset costs what the machine touched. That state is
// the frame table: one 12-byte, pointer-free record per frame, holding its
// owner, its contents slot and its M2P word, the machine-to-phys entry
// the Xen-style monitor (package vmm) keeps through SetM2P and M2P, as Xen
// keeps its M2P beside its frame table. Only an owned frame carries an
// M2P word; Free and Reset clear it. Contents buffers live apart, one per
// frame ever written, and stay with their frame across Free and Reset. A
// frame's contents are stored as a prefix: the bytes up
// to the furthest one written since the frame was last freed, with the rest
// of the page reading zero. A write of zero bytes only that starts at or
// past the prefix's end stores nothing, so host memory follows the
// simulated content: a blank packet or a zeroed page costs no buffer.
// Callers store and fetch bytes through Write, Read, Load, Bytes (the
// prefix) and View (exactly n bytes, zero tail included); nothing hands
// out a writable whole page. Free and Reset truncate the prefix and keep
// its buffer. CopyPage moves a frame's prefix to another frame, across
// machines too, and a source that reads zero costs neither an allocation
// nor a copy. The simulated costs never read a prefix's length.
// PhysMem.Audit checks the allocator's conservation laws for tests.
// FrameBits is the machine's physical-address width: NewPhysMem refuses a
// memory of more than 1<<FrameBits frames, because a page-table entry
// names its frame in that many bits. Each entry packs into 4 bytes, the
// frame, a present bit, the user bit and the three PermRWX bits, and Map
// panics on a frame or a permission bit the entry cannot hold. A table is
// a value, so a domain or a space holds its own in one heap object. Page
// tables built without a size hint grow with use. A page table keeps no
// frame-to-VPN index: it answers reverse lookups (UnmapFrame,
// FramesMapped) through a frame filter, one bit per frame it may map and
// at most one word per entry, so a page flip of a frame the donor never
// mapped costs a bit test, and only a frame whose bit is set costs a scan
// of the table; a table whose few entries map frames too far apart for
// that bound keeps no filter and scans. The NIC's wire tap (hw/dev)
// likewise keeps each transmitted packet's prefix and length, not its
// zero tail.
//
// A MachinePool recycles Reset machines between cells. It is one stack
// with no key: Get re-targets the top machine to the architecture, frame
// count, CPU count and trace-log capacity it asks for, so any pooled
// machine serves any Get; a machine sits in a pool at most once.
//
// Layering: package mk (the L4-style microkernel) and package vmm (the
// Xen-style monitor) both boot directly on a Machine; package core
// instantiates one Machine per experiment cell.
package hw
