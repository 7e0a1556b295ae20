// Package mk implements an L4-style microkernel over the hw substrate:
// threads, address spaces, synchronous IPC with register/string/map
// transfer, interrupt delivery as IPC, external pagers, and threads placed
// on CPUs, each CPU picking among its own by priority and round robin. It
// is "system A" of the paper's comparison; package vmm is its Xen-shaped
// counterpart, package mkos the OS personality that runs on it, and
// package core boots and measures the two side by side.
//
// Following Liedtke's dictum quoted in the paper ("minimize the kernel and
// implement whatever possible outside of the kernel"), the kernel knows
// nothing about devices, files, networks or guest operating systems; all of
// that lives in user-level servers (package mkos). IPC is the single
// extensibility primitive and serves the paper's three purposes: control
// transfer, data transfer, and resource delegation by mutual agreement.
//
// Execution model: the simulation is synchronous and deterministic. A
// server thread is a reactive handler; Call runs the complete IPC path —
// kernel entry, transfer, address-space switch, the handler itself, and the
// reply — charging every step to the right component. This collapses
// scheduling interleavings that the paper's arguments do not depend on
// while preserving exactly what they do depend on: who crosses which
// protection boundary, how often, and at what cost. IPC is delivered one
// way, to a handler: Call and Send run it at once, and an interrupt, a page
// fault or an exception is a kernel-synthesised message to one. No message
// waits in a queue, so a thread without a handler only originates IPC:
// Call and Send to it are refused with ErrNotResponding before anything
// transfers, and RegisterIRQ refuses to route an interrupt line to it.
//
// Message lifetime: IPC copies a message into kernel-owned message
// registers, as L4 copies into the receiver's UTCB, instead of allocating a
// fresh one. A handler's message — from Call or Send, or synthesised for an
// interrupt, page fault or exception — lives in the request registers of
// its call level and is valid until the handler returns. A Call's reply lives in the calling thread's reply
// registers and is valid until that thread's next IPC. Requests are per
// level because a thread's handler can be active at several levels at once
// (two servers calling each other); replies are per thread because a
// client may hold its reply while another thread's call at the same level
// completes. A receiver that keeps bytes copies them, as an L4 server
// does.
//
// Kernel objects: threads and spaces are named by IDs handed out in order
// from 1 and never reused, so the kernel keeps each kind in a slice
// indexed by ID, as package vmm keeps its domains.
//
// Multiprocessor model: threads are placed on CPUs, not moved between
// them. Each thread has a home CPU (Thread.Affinity), and only SetAffinity
// re-homes it, as on L4, where a user-level scheduler migrates threads.
// Each CPU installs one thread at a time (ScheduleOn), chosen among the
// live threads homed on it: the highest priority first, round robin in
// thread-ID order within a priority. So a thread is never installed on
// two CPUs at once. Re-homing an installed thread kicks its old CPU with
// an IPI, IPC between threads homed on different CPUs pays wake and reply
// IPIs, and unmapping a page of a space installed on other CPUs triggers a
// TLB shootdown to each of them. All of this is inert on the 1-CPU
// machines E1–E11 use; experiment E12 is what exercises it.
package mk
