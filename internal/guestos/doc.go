// Package guestos is the guest operating system both systems under
// comparison run, ported twice: package vmmos's guest kernel
// (XenoLinux-like, on the vmm hypervisor) and package mkos's OS server
// (L4Linux-like, on the mk microkernel) each embed one OS. The paper's
// §3.2 comparison, after HHL+97, runs one Linux on both kernels, so the
// OS lives here once: the process IDs, the system-call numbers and their
// one-word replies (Serve), the console, the queue of received packets
// (Deliver) and the fslite mount (MountFS).
//
// A port keeps only the transport. It carries a process's system call to
// Serve (a bounced or fast-path trap on the hypervisor, one IPC call on
// the microkernel), names the caller, hands each received packet to
// Deliver, and supplies the network and block devices its kernel
// attaches (Port). Serve charges a system call's in-kernel work to the
// OS's component whichever port called it, so the same workload meets the
// same OS on both kernels and only the transport costs differ.
package guestos
