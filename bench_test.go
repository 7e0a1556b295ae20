package vmmk

// Host-cost benchmarks that nothing else measures. Each experiment's host
// time and each layer's (the trace charge path, a machine boot, an mk IPC
// call, a hypercall, a page flip, a received packet) has one home, the
// benchmark module: `bash bench/run.sh`, or vmmkbench itself (see
// bench/README.md). What stays here is what no probe or workload metric
// records:
//
//   - the engine's speedup: BenchmarkAllExperiments against
//     BenchmarkAllExperimentsParallel, one sweep on one worker and on a
//     GOMAXPROCS-wide pool, whose tables are identical (see core's
//     determinism tests);
//   - allocations per op of a cold sweep, of the scenario matrix and of
//     each io request kind on each stack, which ROADMAP.md and CHANGES.md
//     quote: BenchmarkAllExperimentsCold, BenchmarkScenarioMatrix and
//     BenchmarkStackIO;
//   - an mk IPC call carrying a packet-sized string, and the JSON
//     encoding of a Result.
//
// Run them with -benchmem:
//
//	go test -run '^$' -bench . -benchmem

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
)

var (
	serialEng   = core.NewRunner(1)
	parallelEng = core.NewRunner(0) // GOMAXPROCS workers
)

// BenchmarkAllExperiments runs the entire evaluation once per iteration on
// one worker: the serial half of the engine's speedup. An untimed sweep
// first warms serialEng's machine pool, so even one iteration times the
// warm-pool sweep and not a cold one (BenchmarkAllExperimentsCold).
func BenchmarkAllExperiments(b *testing.B) {
	benchSweeps(b, serialEng)
}

// benchSweeps times b.N sweeps on eng after one untimed sweep that warms
// its machine pools.
func benchSweeps(b *testing.B, eng *core.Runner) {
	if err := eng.RunAll(io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunAll(io.Discard); err != nil {
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
// engine exists for — after an untimed sweep that warms its pools.
func BenchmarkAllExperimentsParallel(b *testing.B) {
	benchSweeps(b, parallelEng)
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

// BenchmarkMKIPCCallString times one mk IPC Call to an echo server with a
// string item of the io workload's packet size, copied into the server and
// back. The benchmark's mk.ipc_call_ns probe sends one word and no string.
func BenchmarkMKIPCCallString(b *testing.B) {
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
	msg := mk.Msg{Words: []uint64{1}, Data: make([]byte, 1500)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Call(cl.ID, srv.ID, msg); err != nil {
			b.Fatal(err)
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
