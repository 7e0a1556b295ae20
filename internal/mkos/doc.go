// Package mkos provides the operating-system personality that runs on the
// mk microkernel: a paravirtualised OS server (L4Linux-like), user-level
// NIC and disk driver servers that receive interrupts as IPC, a storage
// server with copy-on-write snapshots — the microkernel-side twin of
// package vmmos's Parallax appliance, used by the liability-inversion
// experiment E4 — and a KV server (E10's minimal extension).
//
// The OS server is the mk port of package guestos's guest OS: it embeds
// the OS and keeps only the transport, one IPC call per system call from
// a process's thread (the thread names the caller), and the driver
// connection that delivers received packets to the OS.
//
// Together with package mk this is "system A" of the paper's comparison.
// Structurally it is the DROPS/L4Linux arrangement §3.3 cites: the OS is
// one server among several, drivers are ordinary user-level threads, and
// every interaction is the one IPC primitive. Package core boots this
// stack as MKStack next to vmmos's XenStack on identical hw machines.
//
// On a multiprocessor, OSServer.Pin re-homes one OS instance (server
// thread plus processes) onto its own CPU — the analogue of placing a
// guest's vCPUs — while the driver servers stay on the boot CPU, so
// syscalls stay CPU-local and guest⇄driver IPC pays the cross-CPU IPI
// surcharge experiment E12 measures.
package mkos
