// Package vmm implements a Xen-style virtual-machine monitor over the hw
// substrate: domains with paravirtualised guest kernels, the hypercall
// interface, asynchronous event channels, grant tables with page flipping
// and hypervisor-mediated copy, validated (shadow) page-table updates with
// a write-fault dirty log, exception virtualisation with the x86 trap-gate
// syscall shortcut, a virtual interrupt controller, and whole-domain
// mobility (pause/save/restore, stop-and-copy Migrate and live pre-copy
// MigrateLive). It is "system B" of the paper's comparison; package mk is
// its L4-shaped counterpart, package vmmos the guest side that runs on it,
// and package core boots and measures the two side by side.
//
// The package deliberately exposes the ten primitives the paper's §2.2
// enumerates as "the common subset … found in most VMMs", each with its own
// entry point, validation and bookkeeping — in contrast to package mk,
// where one IPC primitive carries everything. Experiment E5 counts exactly
// this difference.
//
// Multiprocessor model: a domain may be given one virtual CPU on each
// physical CPU of an hw.CPUSet (PlaceVCPUs), and the monitor keeps that
// set minus the boot CPU it runs on. Placement alone decides the SMP
// costs: shadow-page-table invalidation (trap-and-emulate writes,
// MMUUnmap, dirty-log arming) shoots down every pCPU of the set, and
// event delivery into a remotely placed domain pays a kick IPI to its
// lowest pCPU. Domains that are never placed keep the free uniprocessor
// arrangement, which is how E1–E11 stay bit-for-bit unchanged; experiment
// E12 sweeps core counts.
//
// Memory model: each domain's P2M (Domain.Frames) maps its guest page
// numbers to machine frames, with NoFrame holes where pages were ballooned
// out or flipped away. A hole is recorded nowhere else: a page flipped in
// takes the highest hole, or lands past the end when the resident count
// says there is none, and BalloonIn fills the lowest holes first. The
// inverse, Xen's machine-to-phys (M2P) table, maps each frame a live P2M
// holds to its guest page number. Like Xen's, it is machine-wide and sits
// beside the frame owners: it is the M2P word in the record of hw.PhysMem's
// frame table, which the monitor sets and clears through PhysMem.SetM2P and
// reads through PhysMem.M2P, and which PhysMem clears when it frees or
// resets a frame. The monitor keeps no per-frame table of its own, only a
// per-domain count of P2M frames. Every P2M mutation (domain build, restore
// and migration shells, BalloonIn and BalloonOut, page flips,
// DestroyDomain) updates both, so frame -> gpn lookups and OwnedPages are
// O(1). Live domain names are unique, because a domain's name is its
// frames' owner in the physical-memory ledger. Domain IDs are handed out in
// sequence and never reused; once all 2^16 are spent, a build fails with
// ErrDomIDsExhausted. Hypervisor.Audit checks these invariants; it is a
// test oracle. An event-channel port names its channel's slot and
// generation, so signalling one indexes the channel table instead of
// searching it.
//
// Mobility moves page contents as hw.PhysMem prefixes (a DomainImage holds
// each page's written bytes; Migrate is SaveDomain then RestoreDomain, and
// MigrateLive copies frame to frame), while every copy is still charged per
// whole page. Guest page numbers name pages of one size, so RestoreDomain,
// Migrate and MigrateLive refuse a machine whose pages differ in size with
// ErrPageSize, before the source is paused or logged and before any shell
// is built.
package vmm
