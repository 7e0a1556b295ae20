package vmmk

// One benchmark per experiment table (see DESIGN.md's experiment index),
// plus primitive micro-benchmarks. Each BenchmarkE* regenerates its table
// through RunExperiment, the experiment's one entry point; `go test
// -bench=. -benchmem` is the paper's whole evaluation section.
//
// The serial benchmarks pin the engine to one worker so they measure the
// experiments themselves; the *Parallel variants run the same tables on a
// GOMAXPROCS-wide pool, so comparing the two is the engine's speedup:
//
//	go test -bench='E7Micro|E8Macro' -run=^$
//
// Both variants produce identical tables (see core's determinism tests).

import (
	"context"
	"fmt"
	"io"
	"testing"

	"vmmk/internal/core"
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/mk"
	"vmmk/internal/scenario"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

var (
	serialEng   = core.NewRunner(1)
	parallelEng = core.NewRunner(0) // GOMAXPROCS workers
)

// benchExperiment runs experiment id with parameters p on eng once per
// iteration, through its one entry point.
func benchExperiment(b *testing.B, eng *core.Runner, id string, p core.Params) {
	for i := 0; i < b.N; i++ {
		res, err := eng.RunExperiment(context.Background(), id, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables[0].Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkE1Dom0Overhead regenerates the Cherkasova-Gardner sweep.
func BenchmarkE1Dom0Overhead(b *testing.B) {
	benchExperiment(b, serialEng, "e1", core.Params{"packets": 50})
}

// BenchmarkE1Dom0OverheadParallel fans the sweep's ten cells across the
// worker pool.
func BenchmarkE1Dom0OverheadParallel(b *testing.B) {
	benchExperiment(b, parallelEng, "e1", core.Params{"packets": 50})
}

// BenchmarkE2IPCCount regenerates the IPC-equivalence comparison.
func BenchmarkE2IPCCount(b *testing.B) { benchExperiment(b, serialEng, "e2", nil) }

// BenchmarkE3SyscallPath regenerates the syscall-path table.
func BenchmarkE3SyscallPath(b *testing.B) {
	benchExperiment(b, serialEng, "e3", core.Params{"syscalls": 100})
}

// BenchmarkE4BlastRadius regenerates the fault-isolation table.
func BenchmarkE4BlastRadius(b *testing.B) {
	benchExperiment(b, serialEng, "e4", core.Params{"guests": 3})
}

// BenchmarkE5Census regenerates the primitive census.
func BenchmarkE5Census(b *testing.B) { benchExperiment(b, serialEng, "e5", nil) }

// BenchmarkE6Portability regenerates the nine-architecture table.
func BenchmarkE6Portability(b *testing.B) { benchExperiment(b, serialEng, "e6", nil) }

// BenchmarkE7Micro regenerates the primitive microbenchmarks.
func BenchmarkE7Micro(b *testing.B) {
	benchExperiment(b, serialEng, "e7", core.Params{"syscalls": 100})
}

// BenchmarkE7MicroParallel runs the three measurement blocks concurrently.
func BenchmarkE7MicroParallel(b *testing.B) {
	benchExperiment(b, parallelEng, "e7", core.Params{"syscalls": 100})
}

// BenchmarkE8Macro regenerates the web-serving macro comparison.
func BenchmarkE8Macro(b *testing.B) {
	benchExperiment(b, serialEng, "e8", core.Params{"requests": 20})
}

// BenchmarkE8MacroParallel serves the three platforms' request streams
// concurrently.
func BenchmarkE8MacroParallel(b *testing.B) {
	benchExperiment(b, parallelEng, "e8", core.Params{"requests": 20})
}

// BenchmarkE9Ablation regenerates the ablation table.
func BenchmarkE9Ablation(b *testing.B) { benchExperiment(b, serialEng, "e9", nil) }

// BenchmarkE9AblationParallel fans all eighteen ablation cells out at once.
func BenchmarkE9AblationParallel(b *testing.B) { benchExperiment(b, parallelEng, "e9", nil) }

// BenchmarkE10Extension regenerates the minimal-extension complexity table.
func BenchmarkE10Extension(b *testing.B) {
	benchExperiment(b, serialEng, "e10", core.Params{"syscalls": 50})
}

// benchE11 is a trimmed migration sweep sized for benchmarking: 64 pages,
// budgets {0, 1, 2} and dirty rates {0, 2, 16}.
var benchE11 = core.Params{"frames": 64, "rounds": 2, "dirty": 16}

// BenchmarkE11LiveMig regenerates the live-migration downtime sweep.
func BenchmarkE11LiveMig(b *testing.B) { benchExperiment(b, serialEng, "e11", benchE11) }

// BenchmarkE11LiveMigParallel fans the migration cells (two machines each)
// across the worker pool.
func BenchmarkE11LiveMigParallel(b *testing.B) { benchExperiment(b, parallelEng, "e11", benchE11) }

// benchE12 is a trimmed SMP sweep sized for benchmarking.
var benchE12 = core.Params{"cpus": []int{1, 4}}

// BenchmarkE12SMP regenerates the SMP scaling sweep.
func BenchmarkE12SMP(b *testing.B) { benchExperiment(b, serialEng, "e12", benchE12) }

// BenchmarkE12SMPParallel fans the SMP cells across the worker pool.
func BenchmarkE12SMPParallel(b *testing.B) { benchExperiment(b, parallelEng, "e12", benchE12) }

// benchE13 is a trimmed fleet sweep sized for benchmarking.
var benchE13 = core.Params{"fleet": []int{2, 4}, "churn": []int{32}, "hostframes": 160}

// BenchmarkE13Cluster regenerates the fleet placement-and-migration sweep.
func BenchmarkE13Cluster(b *testing.B) { benchExperiment(b, serialEng, "e13", benchE13) }

// BenchmarkE13ClusterParallel fans the fleet cells (each booting a whole
// cluster of pooled hosts) across the worker pool.
func BenchmarkE13ClusterParallel(b *testing.B) { benchExperiment(b, parallelEng, "e13", benchE13) }

// BenchmarkAllExperiments runs the entire evaluation once per iteration —
// the end-to-end "reproduce the paper" cost.
func BenchmarkAllExperiments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := serialEng.RunAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllExperimentsCold runs the entire evaluation on a fresh serial
// runner per iteration, as the benchmark's sweep workload and a fresh
// `vmmklab all` process do, so every machine boots and every frame is
// written for the first time. BenchmarkAllExperiments reuses serialEng's
// warm machine pool and pays for neither.
func BenchmarkAllExperimentsCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := core.NewRunner(1).RunAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllExperimentsParallel is the same evaluation with every
// experiment's cells fanned across the worker pool — the wall-clock win the
// engine exists for.
func BenchmarkAllExperimentsParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := parallelEng.RunAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioMatrix runs every registered fault-injection row, both
// legs, on one worker per iteration: the in-repo counterpart of the
// benchmark's faults workload, which runs the pinned rows in a seeded order.
func BenchmarkScenarioMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(scenario.Options{Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Status != scenario.StatusPass {
				b.Fatalf("row %s: %s: %s", r.ID, r.Status, r.Detail)
			}
		}
	}
}

// BenchmarkResultJSON measures the stable JSON encoding of a finished
// Result — the cost downstream tooling pays per stored document.
func BenchmarkResultJSON(b *testing.B) {
	res, err := serialEng.RunExperiment(context.Background(), "e7", core.Params{"syscalls": 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.JSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- primitive micro-benchmarks (real-time cost of the simulators
// themselves, complementing the simulated-cycle numbers in E7) ---

// BenchmarkMKIPCCall measures the wall-clock cost of one simulated IPC
// round trip.
func BenchmarkMKIPCCall(b *testing.B) { benchMKIPCCall(b, mk.Msg{Words: []uint64{1}}) }

// BenchmarkMKIPCCallString is BenchmarkMKIPCCall with a string item of the
// io workload's packet size, copied into the server and back.
func BenchmarkMKIPCCallString(b *testing.B) {
	benchMKIPCCall(b, mk.Msg{Words: []uint64{1}, Data: make([]byte, 1500)})
}

// benchMKIPCCall times Calls carrying msg to an echo server.
func benchMKIPCCall(b *testing.B, msg mk.Msg) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 256})
	k := mk.New(m)
	cs, err := k.NewSpace("c", mk.NilThread)
	if err != nil {
		b.Fatal(err)
	}
	ss, err := k.NewSpace("s", mk.NilThread)
	if err != nil {
		b.Fatal(err)
	}
	cl := k.NewThread(cs, "c", 1, nil)
	srv := k.NewThread(ss, "s", 2, func(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
		return msg, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Call(cl.ID, srv.ID, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMMHypercall measures the wall-clock cost of one simulated
// hypercall.
func BenchmarkVMMHypercall(b *testing.B) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512})
	h, _, err := vmm.New(m, 64)
	if err != nil {
		b.Fatal(err)
	}
	dU, err := h.CreateDomain("u", 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Hypercall(dU.ID, "nop", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMMPageFlip measures the wall-clock cost of one simulated grant
// + flip pair, ping-ponging a single frame between two domains so the
// benchmark is balanced at any iteration count.
func BenchmarkVMMPageFlip(b *testing.B) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512})
	h, d0, err := vmm.New(m, 64)
	if err != nil {
		b.Fatal(err)
	}
	dU, err := h.CreateDomain("u", 16)
	if err != nil {
		b.Fatal(err)
	}
	f := d0.FrameAt(0)
	owner, peer := d0, dU
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := h.GrantAccess(owner.ID, f, peer.ID, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.GrantTransfer(peer.ID, owner.ID, ref); err != nil {
			b.Fatal(err)
		}
		owner, peer = peer, owner
	}
}

// BenchmarkMachinePool measures the engine's machine-recycling path — one
// Get (a Reset machine after the first iteration) plus one Put — against
// booting the same machine from scratch, the fixed cost every experiment
// cell used to pay. fresh-2^20 boots a machine at E13's -hostframes
// maximum, which costs what a small one does: per-frame state comes with
// the frames a machine touches.
func BenchmarkMachinePool(b *testing.B) {
	cfg := &hw.MachineConfig{Frames: 2048}
	b.Run("pooled", func(b *testing.B) {
		p := hw.NewMachinePool()
		p.Put(p.Get(hw.X86(), cfg)) // warm the pool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Put(p.Get(hw.X86(), cfg))
		}
	})
	for _, bc := range []struct {
		name   string
		frames int
	}{{"fresh", cfg.Frames}, {"fresh-2^20", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := &hw.MachineConfig{Frames: bc.frames}
			for i := 0; i < b.N; i++ {
				if m := hw.NewMachine(hw.X86(), cfg); m == nil {
					b.Fatal("nil machine")
				}
			}
		})
	}
}

// BenchmarkChargeN compares charging 64 homogeneous events through the CPU
// one at a time against the single batched ChargeN call the hot loops now
// use. Both leave identical counters; the gap is the engine's win.
func BenchmarkChargeN(b *testing.B) {
	const n = 64
	b.Run("loop", func(b *testing.B) {
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 16})
		c := m.Rec.Intern("bench.comp")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				m.CPU.Charge(c, trace.KTrap, 100)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 16})
		c := m.Rec.Intern("bench.comp")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.CPU.ChargeN(c, trace.KTrap, 100, n)
		}
	})
}

// BenchmarkXenStackRxPacket measures the full end-to-end receive path.
func BenchmarkXenStackRxPacket(b *testing.B) {
	s, err := core.NewXenStack(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InjectPackets(1, 512, 0)
		if s.DrainRx(0) != 1 {
			b.Fatal("packet lost")
		}
	}
}

// BenchmarkMKStackRxPacket measures the microkernel's receive path.
func BenchmarkMKStackRxPacket(b *testing.B) {
	s, err := core.NewMKStack(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InjectPackets(1, 512, 0)
		if s.DrainRx(0) != 1 {
			b.Fatal("packet lost")
		}
	}
}

// BenchmarkStackIO issues each request kind of vmmkbench's io workload on
// each stack, the way that workload issues it: a 4×1500 B receive burst
// drained with DrainRx, a 4×1500 B send drained from the wire, a syscall,
// and a page-sized write or read of one of 256 blocks the boot's warm-up
// wrote. Run it with -benchmem: a warm request allocates nothing, except
// native rx, whose RX handler leaks a frame per packet. For the same leak
// the stack reboots every 512 requests, outside the timer.
func BenchmarkStackIO(b *testing.B) {
	const (
		burst  = 4
		packet = 1500
		blocks = 256
		epoch  = 512
	)
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i) | 1
	}
	kinds := []struct {
		name string
		op   func(p core.Platform, nic *dev.NIC, i int) error
	}{
		{"rx", func(p core.Platform, _ *dev.NIC, _ int) error {
			p.InjectPackets(burst, packet, 0)
			if n := p.DrainRx(0); n != burst {
				return fmt.Errorf("drained %d packets, injected %d", n, burst)
			}
			return nil
		}},
		{"tx", func(p core.Platform, nic *dev.NIC, _ int) error {
			if err := p.SendPackets(burst, packet, 0); err != nil {
				return err
			}
			if n := len(nic.Transmitted()); n != burst {
				return fmt.Errorf("wire saw %d packets, sent %d", n, burst)
			}
			return nil
		}},
		{"syscall", func(p core.Platform, _ *dev.NIC, _ int) error {
			return p.DoSyscall(0, 1, 0)
		}},
		{"blk_write", func(p core.Platform, _ *dev.NIC, i int) error {
			return p.StorageWrite(0, uint64(i%blocks), page)
		}},
		{"blk_read", func(p core.Platform, _ *dev.NIC, i int) error {
			_, err := p.StorageRead(0, uint64(i%blocks))
			return err
		}},
	}
	boot := func(b *testing.B, stack string) (core.Platform, *dev.NIC) {
		var (
			p   core.Platform
			nic *dev.NIC
			err error
		)
		switch stack {
		case "vmm":
			var s *core.XenStack
			s, err = core.NewXenStack(core.Config{})
			p, nic = s, s.NIC
		case "mk":
			var s *core.MKStack
			s, err = core.NewMKStack(core.Config{})
			p, nic = s, s.NIC
		default:
			var s *core.NativeStack
			s, err = core.NewNativeStack(core.Config{})
			p, nic = s, s.NIC
		}
		if err != nil {
			b.Fatal(err)
		}
		for i := range blocks {
			if err := p.StorageWrite(0, uint64(i), page); err != nil {
				b.Fatal(err)
			}
		}
		return p, nic
	}
	for _, stack := range []string{"vmm", "mk", "native"} {
		for _, kind := range kinds {
			b.Run(stack+"/"+kind.name, func(b *testing.B) {
				p, nic := boot(b, stack)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 && i%epoch == 0 {
						b.StopTimer()
						p.Close()
						p, nic = boot(b, stack)
						b.StartTimer()
					}
					if err := kind.op(p, nic, i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
