package trace

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestKindClassificationTotal drives every defined kind through every
// classifier: IsIPCEquivalent's switch is total-with-panic, so a newly added
// kind that nobody classified fails here (and in every experiment that sums
// IPC-equivalent ops) instead of being silently dropped from E2 counts.
func TestKindClassificationTotal(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		_ = k.IsIPCEquivalent() // panics on an unclassified kind
		_ = k.IsMKPrimitive()
		_ = k.IsVMMPrimitive()
	}
}

// TestPostPaperKindsClassification pins the deliberate decision that the
// kinds added after the paper's §2.2 enumeration (dirty-log faults in PR 2,
// IPIs and TLB shootdowns in PR 4) are neither primitives nor
// IPC-equivalent: they are substrate plumbing both kernel structures pay
// for, and the logical transfers they accompany are already counted once.
func TestPostPaperKindsClassification(t *testing.T) {
	for _, k := range []Kind{KDirtyLogFault, KIPI, KTLBShootdown} {
		if k.IsIPCEquivalent() {
			t.Errorf("%v must not count as IPC-equivalent", k)
		}
		if k.IsMKPrimitive() || k.IsVMMPrimitive() {
			t.Errorf("%v must not count as a paper primitive", k)
		}
	}
}

func TestKindClassesDisjoint(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if k.IsMKPrimitive() && k.IsVMMPrimitive() {
			t.Errorf("%v is in both primitive classes", k)
		}
	}
}

func TestVMMPrimitiveCountIsTen(t *testing.T) {
	// The paper (§2.2) enumerates exactly ten common VMM primitives; the
	// census experiment depends on that cardinality.
	n := 0
	for k := Kind(0); k < kindCount; k++ {
		if k >= KGuestUserToKernel && k <= KVirtDeviceOp {
			n++
		}
	}
	if n != 10 {
		t.Fatalf("paper-enumerated VMM primitives = %d, want 10", n)
	}
}

func TestChargeAccumulates(t *testing.T) {
	r := NewRecorder(0)
	r.Charge(0, KHypercall, r.Intern("vmm.dom0"), 100)
	r.Charge(5, KHypercall, r.Intern("vmm.dom0"), 50)
	r.Charge(9, KIPCSend, r.Intern("mk.kernel"), 25)
	if got := r.Counts(KHypercall); got != 2 {
		t.Errorf("hypercall count = %d, want 2", got)
	}
	if got := r.Cycles("vmm.dom0"); got != 150 {
		t.Errorf("dom0 cycles = %d, want 150", got)
	}
	if got := r.TotalCycles(); got != 175 {
		t.Errorf("total cycles = %d, want 175", got)
	}
}

func TestChargeCyclesNoEvent(t *testing.T) {
	r := NewRecorder(0)
	r.ChargeCycles(r.Intern("app"), 42)
	for k := Kind(0); k < kindCount; k++ {
		if r.Counts(k) != 0 {
			t.Fatalf("ChargeCycles incremented event counter %v", k)
		}
	}
	if r.Cycles("app") != 42 {
		t.Fatal("cycles not charged")
	}
}

// TestChargeNEquivalence pins the counter/ledger contract: ChargeN(c, n) is
// indistinguishable from n individual Charges in every query the experiments
// use — event counts, per-component cycles, totals, snapshots.
func TestChargeNEquivalence(t *testing.T) {
	loop := NewRecorder(0)
	comp := loop.Intern("mk.kernel")
	for i := 0; i < 7; i++ {
		loop.Charge(uint64(i), KIPCSend, comp, 30)
	}
	batch := NewRecorder(0)
	batch.ChargeN(6, KIPCSend, batch.Intern("mk.kernel"), 30, 7)

	if a, b := loop.Counts(KIPCSend), batch.Counts(KIPCSend); a != b {
		t.Errorf("counts: loop %d, batch %d", a, b)
	}
	if a, b := loop.Cycles("mk.kernel"), batch.Cycles("mk.kernel"); a != b {
		t.Errorf("cycles: loop %d, batch %d", a, b)
	}
	if a, b := loop.TotalCycles(), batch.TotalCycles(); a != b {
		t.Errorf("total: loop %d, batch %d", a, b)
	}
	if a, b := loop.IPCEquivalentOps(), batch.IPCEquivalentOps(); a != b {
		t.Errorf("ipc-equivalent: loop %d, batch %d", a, b)
	}
}

// TestChargeNLogSemantics pins the event-log contract: one aggregate record
// carrying the count and the total cycles, so summing Cycles over the log is
// independent of how charges were batched.
func TestChargeNLogSemantics(t *testing.T) {
	r := NewRecorder(16)
	r.ChargeN(42, KPageFlip, r.Intern("vmm.dom0"), 10, 5)
	log := r.Log()
	if len(log) != 1 {
		t.Fatalf("log has %d records, want 1 aggregate", len(log))
	}
	rec := log[0]
	if rec.At != 42 || rec.Kind != KPageFlip || rec.Component != "vmm.dom0" {
		t.Errorf("aggregate record = %+v", rec)
	}
	if rec.Cycles != 50 {
		t.Errorf("aggregate cycles = %d, want 50 (total, not per-event)", rec.Cycles)
	}
	if rec.Count != 5 {
		t.Errorf("aggregate count = %d, want 5", rec.Count)
	}

	// A plain Charge logs Count 1 — the log's Count column is total.
	r.Charge(43, KTrap, r.Intern("vmm.dom0"), 7)
	log = r.Log()
	if got := log[len(log)-1].Count; got != 1 {
		t.Errorf("plain Charge logged Count %d, want 1", got)
	}
}

func TestChargeNZeroCount(t *testing.T) {
	r := NewRecorder(4)
	r.ChargeN(0, KTrap, r.Intern("x"), 100, 0)
	if r.Counts(KTrap) != 0 || r.TotalCycles() != 0 || len(r.Log()) != 0 {
		t.Fatal("ChargeN with count 0 must be a no-op")
	}
}

func TestCyclesPrefix(t *testing.T) {
	r := NewRecorder(0)
	r.ChargeCycles(r.Intern("vmm.dom0"), 10)
	r.ChargeCycles(r.Intern("vmm.domU1"), 20)
	r.ChargeCycles(r.Intern("mk.kernel"), 5)
	if got := r.CyclesPrefix("vmm."); got != 30 {
		t.Errorf("prefix sum = %d, want 30", got)
	}
}

func TestComponentsOrder(t *testing.T) {
	r := NewRecorder(0)
	r.ChargeCycles(r.Intern("b"), 1)
	r.ChargeCycles(r.Intern("a"), 1)
	r.ChargeCycles(r.Intern("b"), 1)
	got := r.Components()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("components = %v, want [b a]", got)
	}
}

func TestIPCEquivalentOps(t *testing.T) {
	r := NewRecorder(0)
	x := r.Intern("x")
	r.Charge(0, KIPCCall, x, 0)
	r.Charge(0, KPageFlip, x, 0)
	r.Charge(0, KTLBFlush, x, 0) // not IPC-equivalent
	r.Charge(0, KHypercall, x, 0)
	// KHypercall is resource allocation, not a domain-crossing data/control
	// transfer in the E2 sense.
	if KHypercall.IsIPCEquivalent() {
		t.Fatal("hypercall should not count as IPC-equivalent")
	}
	if got := r.IPCEquivalentOps(); got != 2 {
		t.Errorf("IPC-equivalent ops = %d, want 2", got)
	}
}

func TestDistinctPrimitives(t *testing.T) {
	r := NewRecorder(0)
	x := r.Intern("x")
	r.Charge(0, KIPCCall, x, 0)
	r.Charge(0, KIPCSend, x, 0)
	r.Charge(0, KHypercall, x, 0)
	r.Charge(0, KPageFlip, x, 0)
	if got := len(r.DistinctPrimitives(Snapshot{}, "mk")); got != 2 {
		t.Errorf("mk primitives = %d, want 2", got)
	}
	if got := len(r.DistinctPrimitives(Snapshot{}, "vmm")); got != 2 {
		t.Errorf("vmm primitives = %d, want 2", got)
	}
	if got := len(r.DistinctPrimitives(Snapshot{}, "")); got != 4 {
		t.Errorf("all primitives = %d, want 4", got)
	}
	// A window counts only the kinds that moved inside it.
	s := r.Snapshot()
	r.Charge(0, KIPCCall, x, 0)
	r.Charge(0, KTrap, x, 0) // not a primitive
	if got := r.DistinctPrimitives(s, ""); len(got) != 1 || got[0] != KIPCCall {
		t.Errorf("primitives since snapshot = %v, want [%v]", got, KIPCCall)
	}
}

func TestLogBounded(t *testing.T) {
	r := NewRecorder(3)
	for i := uint64(0); i < 10; i++ {
		r.Charge(i, KTrap, r.Intern("x"), 1)
	}
	log := r.Log()
	if len(log) != 3 {
		t.Fatalf("log length = %d, want 3", len(log))
	}
	if log[0].At != 7 || log[2].At != 9 {
		t.Errorf("log kept wrong window: %+v", log)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRecorder(0)
	r.Charge(0, KIPCCall, r.Intern("mk.kernel"), 10)
	s := r.Snapshot()
	r.Charge(1, KIPCCall, r.Intern("mk.kernel"), 10)
	r.Charge(2, KIPCCall, r.Intern("mk.kernel"), 10)
	if got := r.CountsSince(s, KIPCCall); got != 2 {
		t.Errorf("delta counts = %d, want 2", got)
	}
	if got := r.IPCEquivalentSince(s); got != 2 {
		t.Errorf("delta ipc-equiv = %d, want 2", got)
	}
}

// TestSnapshotAllocatesNothing pins a snapshot to the event counters: taking
// one copies no per-component ledger, however many components have been
// charged.
func TestSnapshotAllocatesNothing(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 64; i++ {
		r.Charge(0, KTrap, r.Intern(fmt.Sprintf("c%d", i)), 1)
	}
	var s Snapshot
	if n := testing.AllocsPerRun(100, func() { s = r.Snapshot() }); n != 0 {
		t.Fatalf("Snapshot allocates %v times per call, want 0", n)
	}
	if got := r.CountsSince(s, KTrap); got != 0 {
		t.Fatalf("delta since a fresh snapshot = %d, want 0", got)
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder(2)
	r.Charge(0, KTrap, r.Intern("x"), 5)
	r.Reset()
	if r.Counts(KTrap) != 0 || r.TotalCycles() != 0 || len(r.Log()) != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestSummaryDeterministic(t *testing.T) {
	build := func() string {
		r := NewRecorder(0)
		r.Charge(0, KHypercall, r.Intern("b"), 1)
		r.Charge(0, KIPCSend, r.Intern("a"), 2)
		return r.Summary()
	}
	if build() != build() {
		t.Fatal("summary not deterministic")
	}
	if !strings.Contains(build(), "vmm.hypercall") {
		t.Fatal("summary missing event name")
	}
}

func TestQuickChargeTotal(t *testing.T) {
	f := func(charges []uint32) bool {
		r := NewRecorder(0)
		var want uint64
		for i, c := range charges {
			comp := "c" + string(rune('a'+i%5))
			r.ChargeCycles(r.Intern(comp), uint64(c))
			want += uint64(c)
		}
		return r.TotalCycles() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
