package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies a class of kernel-level event. The set is the union of the
// primitives the paper enumerates for microkernels (§2.2, one IPC primitive)
// and for VMMs (§2.2, ten primitives), plus substrate events needed for cycle
// accounting.
type Kind uint8

// Event kinds. Microkernel side uses KIPC* and KMap*; the VMM side uses the
// KHyper*/KEvtchn/KPageFlip/KGrant* family. Shared hardware events are at the
// end.
const (
	// Microkernel primitives.
	KIPCSend Kind = iota
	// KIPCReceive is charged by nothing: mk delivers every message to a
	// handler, so no thread polls for one. It keeps its slot because the
	// kinds' numbering and names are part of recorded counts.
	KIPCReceive
	KIPCCall // send+receive rendezvous counted once per round trip
	KIPCMapTransfer
	KIPCStringTransfer
	KPagerFault // page fault forwarded to a user-level pager via IPC

	// VMM primitives (paper §2.2 items 1-10).
	KGuestUserToKernel // 1: sync switch guest-user -> guest-kernel
	KGuestKernelToUser // 2: sync switch guest-kernel -> guest-user
	KEvtchnSend        // 3: async cross-domain channel notification
	KHypercall         // 4: resource allocation / control via hypercall
	KShadowPTUpdate    // 5: in-VM resource allocation via PT virtualisation
	KPageFlip          // 6: resource re-allocation via page flipping
	KExceptionBounce   // 7: exception/page-fault virtualisation bounce
	KVirtIRQ           // 8: async event via virtual-interrupt signalling
	KHardIRQInject     // 9: hardware interrupt via virtualised controller
	KVirtDeviceOp      // 10: common virtual device (NIC/disk) operation
	KGrantMap
	KGrantCopy
	KSyscallFastPath // trap-gate shortcut, VMM not invoked

	// Shared substrate events.
	KTrap // entry to the privileged kernel/monitor from any source
	KKernelExit
	KContextSwitch // same-privilege thread/vCPU switch
	KWorldSwitch   // cross-domain (address-space or VM) switch
	KTLBFlush
	KTLBMiss
	KPageFault
	KIRQ // physical interrupt raised
	KDMATransfer
	KSchedule
	KFault // injected component failure

	// KDirtyLogFault is a guest store taken as a write-protect fault by the
	// dirty-page log (live pre-copy migration). Deliberately outside the E5
	// primitive ranges: it is a use of primitive 7's fault machinery, not a
	// new primitive, and the bounce itself is counted separately.
	KDirtyLogFault

	// KIPI is one inter-processor interrupt: a cross-CPU kick for remote
	// wakeup, re-homing a running thread or shootdown initiation. Like
	// KDirtyLogFault it sits outside the E5 primitive ranges — an IPI is
	// hardware plumbing both kernel structures pay for, not a new
	// extensibility primitive — and outside the E2 IPC-equivalent set,
	// because the logical transfer it accompanies (the cross-CPU IPC or
	// event delivery) is already counted once.
	KIPI

	// KTLBShootdown is one remote TLB invalidation performed by a target
	// CPU in response to a shootdown IPI. Counted per target CPU flushed,
	// so a broadcast shootdown on an N-CPU machine counts N-1 events.
	KTLBShootdown

	kindCount
)

var kindNames = [...]string{
	KIPCSend:           "ipc.send",
	KIPCReceive:        "ipc.receive",
	KIPCCall:           "ipc.call",
	KIPCMapTransfer:    "ipc.map",
	KIPCStringTransfer: "ipc.string",
	KPagerFault:        "ipc.pagerfault",
	KGuestUserToKernel: "vmm.guest-u2k",
	KGuestKernelToUser: "vmm.guest-k2u",
	KEvtchnSend:        "vmm.evtchn",
	KHypercall:         "vmm.hypercall",
	KShadowPTUpdate:    "vmm.shadowpt",
	KPageFlip:          "vmm.pageflip",
	KExceptionBounce:   "vmm.exc-bounce",
	KVirtIRQ:           "vmm.virq",
	KHardIRQInject:     "vmm.hirq-inject",
	KVirtDeviceOp:      "vmm.vdev",
	KGrantMap:          "vmm.grantmap",
	KGrantCopy:         "vmm.grantcopy",
	KSyscallFastPath:   "vmm.fastpath",
	KTrap:              "hw.trap",
	KKernelExit:        "hw.kexit",
	KContextSwitch:     "hw.ctxsw",
	KWorldSwitch:       "hw.worldsw",
	KTLBFlush:          "hw.tlbflush",
	KTLBMiss:           "hw.tlbmiss",
	KPageFault:         "hw.pagefault",
	KIRQ:               "hw.irq",
	KDMATransfer:       "hw.dma",
	KSchedule:          "hw.sched",
	KFault:             "sim.fault",
	KDirtyLogFault:     "vmm.dirtylog",
	KIPI:               "smp.ipi",
	KTLBShootdown:      "smp.shootdown",
}

// String returns the stable dotted name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NKinds is the number of defined event kinds.
const NKinds = int(kindCount)

// IsIPCEquivalent reports whether the kind counts as an "IPC-equivalent
// operation" for experiment E2: a kernel-mediated protection-domain crossing
// that transfers control or data between two parties. This is the paper's
// §3.2 notion ("a Xen-based system performs essentially the same number of
// IPC operations as a comparable microkernel-based system").
//
// Counting is per logical transfer, matching how KIPCCall counts one round
// trip: a bounced guest syscall counts once (KExceptionBounce), so its
// constituent guest-u2k/k2u ring transitions do not count again.
//
// The switch is total: every defined kind appears in exactly one case, and
// an unclassified kind panics instead of silently not counting. Adding a
// kind therefore forces an explicit E2 decision here (KDirtyLogFault, KIPI
// and KTLBShootdown were added after the paper's enumeration and are
// deliberately in the "no" case — see their doc comments).
func (k Kind) IsIPCEquivalent() bool {
	switch k {
	case KIPCSend, KIPCReceive, KIPCCall, KIPCStringTransfer, KIPCMapTransfer, KPagerFault,
		KEvtchnSend, KPageFlip, KExceptionBounce, KVirtIRQ, KGrantCopy, KGrantMap:
		return true
	case KGuestUserToKernel, KGuestKernelToUser, KHypercall, KShadowPTUpdate,
		KHardIRQInject, KVirtDeviceOp, KSyscallFastPath,
		KTrap, KKernelExit, KContextSwitch, KWorldSwitch, KTLBFlush, KTLBMiss,
		KPageFault, KIRQ, KDMATransfer, KSchedule, KFault,
		KDirtyLogFault, KIPI, KTLBShootdown:
		return false
	default:
		panic(fmt.Sprintf("trace: kind %d has no IPC-equivalence classification; classify it in IsIPCEquivalent", uint8(k)))
	}
}

// IsVMMPrimitive reports whether the kind is one of the ten VMM primitives
// enumerated in §2.2 of the paper, for the primitive census (E5).
func (k Kind) IsVMMPrimitive() bool {
	return k >= KGuestUserToKernel && k <= KVirtDeviceOp
}

// IsMKPrimitive reports whether the kind is a microkernel primitive (all are
// facets of the single IPC mechanism), for the primitive census (E5).
func (k Kind) IsMKPrimitive() bool {
	return k <= KPagerFault
}

// Recorder accumulates event counts and per-component cycle attribution.
// The cycle ledger is a flat slice indexed by Comp handle; all charge-path
// methods deal in handles minted by the recorder's Registry (Intern), so a
// charge is two array increments with no hashing and no allocation. Every
// query is worked out from the counters and that one ledger when it is
// asked: the string-keyed ones (Cycles, CyclesPrefix) resolve names through
// the registry per call. The zero value is not ready to use; call
// NewRecorder.
type Recorder struct {
	reg     *Registry
	counts  [kindCount]uint64
	cycles  []uint64 // indexed by Comp; grown on demand
	seen    []bool   // indexed by Comp; true once charged
	charged []Comp   // components in first-charge order

	// Bounded event log as a ring buffer: once len(log) == logCap the
	// oldest record is overwritten in place — O(1) per eviction.
	log     []Record
	logHead int // index of the oldest record once the ring is full
	logCap  int
}

// Record is one logged entry, kept only when logging is enabled. A record
// aggregates Count events of the same kind against one component (Count is
// 1 for a plain Charge); Cycles is the total across all of them, so summing
// Cycles over the log is independent of how charges were batched.
type Record struct {
	At        uint64 // cycle timestamp (flush time for an aggregate)
	Kind      Kind
	Component string
	Cycles    uint64 // total cycles across the aggregated events
	Count     uint64 // events this record stands for (>= 1)
}

// NewRecorder returns an empty recorder with a fresh Registry. logCap > 0
// enables the bounded event log (oldest entries are dropped beyond the cap).
func NewRecorder(logCap int) *Recorder {
	return &Recorder{reg: NewRegistry(), logCap: logCap}
}

// SetLogCap gives a recorder fresh from Reset the event-log capacity
// NewRecorder(logCap) would, and keeps the log's buffer: the machine
// pool's re-target of a recycled machine's recorder.
func (r *Recorder) SetLogCap(logCap int) { r.logCap = logCap }

// Registry returns the recorder's component registry.
func (r *Recorder) Registry() *Registry { return r.reg }

// Intern returns the handle for a dotted component name, minting it on first
// use. Components intern once at boot/registration time and charge through
// the handle thereafter.
func (r *Recorder) Intern(name string) Comp {
	c := r.reg.Intern(name)
	r.ensure(c)
	return c
}

// InternJoin is Intern(prefix + name), without building the joined name
// when it is already interned (see Registry.InternJoin).
func (r *Recorder) InternJoin(prefix, name string) Comp {
	c := r.reg.InternJoin(prefix, name)
	r.ensure(c)
	return c
}

// ensure grows the ledger to cover handle c. Growth goes through append, so
// a stream of freshly interned names (a fleet's guests) costs amortized
// constant time per name, not a copy of the whole ledger each.
func (r *Recorder) ensure(c Comp) {
	if int(c) < len(r.cycles) {
		return
	}
	n := max(len(r.reg.names), int(c)+1)
	r.cycles = append(r.cycles, make([]uint64, n-len(r.cycles))...)
	r.seen = append(r.seen, make([]bool, n-len(r.seen))...)
}

// Charge attributes cycles to the component and increments the kind counter.
func (r *Recorder) Charge(at uint64, kind Kind, c Comp, cycles uint64) {
	r.counts[kind]++
	r.chargeCycles(c, cycles)
	if r.logCap > 0 {
		r.logAppend(Record{At: at, Kind: kind, Component: r.reg.Name(c), Cycles: cycles, Count: 1})
	}
}

// ChargeN attributes count events of kind, costing cycles each, to the
// component in one ledger update — the batched equivalent of calling Charge
// count times with the same arguments. Counters and the cycle ledger end up
// exactly as the loop would leave them; the event log gets ONE aggregate
// record carrying the count and the total cycles instead of count records.
// A zero count charges nothing.
func (r *Recorder) ChargeN(at uint64, kind Kind, c Comp, cycles, count uint64) {
	if count == 0 {
		return
	}
	total := cycles * count
	r.counts[kind] += count
	r.chargeCycles(c, total)
	if r.logCap > 0 {
		r.logAppend(Record{At: at, Kind: kind, Component: r.reg.Name(c), Cycles: total, Count: count})
	}
}

// ChargeCycles attributes cycles to a component without counting an event;
// used for plain execution time (the workload "doing its job").
func (r *Recorder) ChargeCycles(c Comp, cycles uint64) {
	r.chargeCycles(c, cycles)
}

func (r *Recorder) chargeCycles(c Comp, cycles uint64) {
	if int(c) >= len(r.cycles) {
		r.ensure(c)
	}
	if !r.seen[c] {
		r.seen[c] = true
		r.charged = append(r.charged, c)
	}
	r.cycles[c] += cycles
}

// logAppend adds rec to the ring, overwriting the oldest record when full.
func (r *Recorder) logAppend(rec Record) {
	if len(r.log) < r.logCap {
		r.log = append(r.log, rec)
		return
	}
	r.log[r.logHead] = rec
	r.logHead++
	if r.logHead == r.logCap {
		r.logHead = 0
	}
}

// Counts returns the count for kind.
func (r *Recorder) Counts(kind Kind) uint64 { return r.counts[kind] }

// Cycles returns the cycles charged to the named component.
func (r *Recorder) Cycles(component string) uint64 {
	c, ok := r.reg.Lookup(component)
	if !ok || int(c) >= len(r.cycles) {
		return 0
	}
	return r.cycles[c]
}

// CyclesPrefix sums cycles over all components whose name starts with
// prefix. Only charged components hold cycles, so it scans those.
func (r *Recorder) CyclesPrefix(prefix string) uint64 {
	var sum uint64
	for _, c := range r.charged {
		if strings.HasPrefix(r.reg.names[c], prefix) {
			sum += r.cycles[c]
		}
	}
	return sum
}

// TotalCycles sums cycles over all components.
func (r *Recorder) TotalCycles() uint64 {
	var sum uint64
	for _, c := range r.charged {
		sum += r.cycles[c]
	}
	return sum
}

// Components returns component names in first-charge order.
func (r *Recorder) Components() []string {
	out := make([]string, len(r.charged))
	for i, c := range r.charged {
		out[i] = r.reg.Name(c)
	}
	return out
}

// IPCEquivalentOps sums the counters of every IPC-equivalent kind (E2).
func (r *Recorder) IPCEquivalentOps() uint64 {
	var sum uint64
	for k := Kind(0); k < kindCount; k++ {
		if k.IsIPCEquivalent() {
			sum += r.counts[k]
		}
	}
	return sum
}

// DistinctPrimitives returns the distinct primitive kinds whose counters
// moved since the snapshot, filtered by class ("mk", "vmm" or "" for both) —
// the raw material of the E5 and E10 censuses. The zero Snapshot counts
// everything since the last Reset.
func (r *Recorder) DistinctPrimitives(since Snapshot, class string) []Kind {
	var out []Kind
	for k := Kind(0); k < kindCount; k++ {
		if r.counts[k] == since.counts[k] {
			continue
		}
		switch class {
		case "mk":
			if k.IsMKPrimitive() {
				out = append(out, k)
			}
		case "vmm":
			if k.IsVMMPrimitive() {
				out = append(out, k)
			}
		default:
			if k.IsMKPrimitive() || k.IsVMMPrimitive() {
				out = append(out, k)
			}
		}
	}
	return out
}

// Log returns a copy of the bounded event log, oldest first.
func (r *Recorder) Log() []Record {
	out := make([]Record, len(r.log))
	n := copy(out, r.log[r.logHead:])
	copy(out[n:], r.log[:r.logHead])
	return out
}

// Reset clears all counters, attributions and the log. Interned handles
// remain valid: the registry survives a reset.
func (r *Recorder) Reset() {
	r.counts = [kindCount]uint64{}
	for _, c := range r.charged {
		r.cycles[c] = 0
		r.seen[c] = false
	}
	r.charged = r.charged[:0]
	r.log = r.log[:0]
	r.logHead = 0
}

// Snapshot captures the current counter values so a caller can later compute
// a delta over a measurement window.
func (r *Recorder) Snapshot() Snapshot { return Snapshot{counts: r.counts} }

// Snapshot is a point-in-time copy of a Recorder's event counters. The zero
// Snapshot stands for a recorder fresh from Reset.
type Snapshot struct {
	counts [kindCount]uint64
}

// CountsSince returns the count delta for kind between s and the recorder's
// current state.
func (r *Recorder) CountsSince(s Snapshot, kind Kind) uint64 {
	return r.counts[kind] - s.counts[kind]
}

// IPCEquivalentSince returns the IPC-equivalent op delta since s.
func (r *Recorder) IPCEquivalentSince(s Snapshot) uint64 {
	var sum uint64
	for k := Kind(0); k < kindCount; k++ {
		if k.IsIPCEquivalent() {
			sum += r.counts[k] - s.counts[k]
		}
	}
	return sum
}

// Summary renders a deterministic human-readable summary of all non-zero
// counters and all component cycle attributions.
func (r *Recorder) Summary() string {
	var b strings.Builder
	b.WriteString("events:\n")
	for k := Kind(0); k < kindCount; k++ {
		if r.counts[k] > 0 {
			fmt.Fprintf(&b, "  %-18s %12d\n", k.String(), r.counts[k])
		}
	}
	b.WriteString("cycles:\n")
	names := make([]string, 0, len(r.charged))
	for _, c := range r.charged {
		names = append(names, r.reg.Name(c))
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-18s %12d\n", n, r.Cycles(n))
	}
	return b.String()
}
