package trace

import "testing"

// Microbenchmarks for the charge hot path. Every simulated privileged
// operation funnels through Charge/ChargeCycles, so these two are the
// constant factor of the entire experiment engine. CHANGES.md's PR 3 entry
// records the string-keyed (pre-handle) baseline, and the benchmark's
// trace.charge_ns probe (bench/results/baseline.json) the current number.

// BenchmarkRecorderCharge measures one Charge to a single component — the
// tightest possible loop over the ledger.
func BenchmarkRecorderCharge(b *testing.B) {
	r := NewRecorder(0)
	xen := r.Intern("vmm.xen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Charge(uint64(i), KHypercall, xen, 1)
	}
}

// BenchmarkTraceHotPath mimics one bounced guest syscall's charge pattern:
// monitor entry, bounce, guest-kernel work, exit — four attributions across
// two components plus a windowed count and a prefix sum every 1024 ops.
func BenchmarkTraceHotPath(b *testing.B) {
	r := NewRecorder(0)
	xen := r.Intern("vmm.xen")
	domU := r.Intern("vmm.domU1")
	b.ReportAllocs()
	b.ResetTimer()
	s := r.Snapshot()
	for i := 0; i < b.N; i++ {
		at := uint64(i)
		r.Charge(at, KTrap, xen, 150)
		r.Charge(at, KExceptionBounce, xen, 250)
		r.ChargeCycles(domU, 500)
		r.Charge(at, KKernelExit, xen, 120)
		if i%1024 == 0 {
			_ = r.CountsSince(s, KExceptionBounce)
			_ = r.CyclesPrefix("vmm.domU")
		}
	}
}

// BenchmarkChargeN measures one aggregate charge standing for 64 events —
// the batched hot path the event-driven engine funnels loops through. Divide
// by 64 for the per-event cost to compare against BenchmarkRecorderCharge.
func BenchmarkChargeN(b *testing.B) {
	r := NewRecorder(0)
	xen := r.Intern("vmm.xen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ChargeN(uint64(i), KHypercall, xen, 1, 64)
	}
}

// BenchmarkRecorderChargeLogged measures the ring-buffer log in its steady
// (wrapping) state: every Charge evicts the oldest record in O(1).
func BenchmarkRecorderChargeLogged(b *testing.B) {
	r := NewRecorder(256)
	xen := r.Intern("vmm.xen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Charge(uint64(i), KHypercall, xen, 1)
	}
}
