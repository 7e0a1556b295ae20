package trace

import "testing"

// Charge-path benchmarks that nothing else measures. One Charge and one
// 64-event ChargeN have their home in the benchmark module, as its
// trace.charge_ns and trace.charge_n64_ns probes (bench/README.md). These
// two time what no probe does: a bounced syscall's charge pattern with its
// windowed reads, and a Charge into a wrapping event log.

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
