// Package trace records what the simulated kernels do: how many times each
// privileged primitive fires and how many CPU cycles each component
// consumes. Every experiment in the paper reduces to questions over these
// two ledgers ("how many boundary crossings?", "whose CPU time is it?"),
// so the recorder is deliberately dumb and exact: monotone counters, no
// sampling. It sits below everything — package hw charges through it, both
// kernels (mk, vmm) and their personalities (mkos, vmmos) intern their
// component names into it, and package core reduces it into the result
// tables.
//
// Components are identified by interned handles, not strings. A Registry
// interns dotted component names ("vmm.dom0", "mk.srv.net", "cpu1.ipi")
// into dense integer Comp handles; producers intern once at
// boot/registration time (hw.CPU helpers, kernel/hypervisor/domain/thread
// constructors all store their handle) and charge through the handle
// thereafter. That makes the hot path — Charge/ChargeCycles under every
// simulated privileged operation — two array increments into a flat
// ledger, with no hashing and no allocation. The registry keeps names and
// nothing else, and the recorder keeps the counters and that one ledger:
// every query (Cycles, CyclesPrefix, the primitive census) is worked out
// from them when it is asked, and a Snapshot is a copy of the counters
// alone.
//
// The optional bounded event log is a ring buffer (cmd/tracedump prints
// it).
package trace
