package core

import (
	"fmt"

	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/mk"
	"vmmk/internal/vmm"
	"vmmk/internal/vmmos"
)

// E9 ablates the design decisions DESIGN.md calls out:
//
//  a. page flip vs grant copy for inter-domain I/O, across packet sizes —
//     the CG05 follow-up question ("would copying be cheaper?");
//  b. tagged vs untagged TLB (ASIDs) for IPC cost — the microkernel's
//     context-switch burden depends on the hardware the paper's era lacked
//     on x86;
//  c. trap-gate fast path on vs off for syscall cost;
//  d. consolidated "super-VM" (storage in Dom0) vs decomposed servers,
//     measured by blast radius — §2.2's single-point-of-failure warning.

// e9Spec is E9's entry in the experiment table.
var e9Spec = Spec{
	ID:    "e9",
	Title: "design-decision ablations",
	Run: func(r *Runner, _ Params) (*Result, error) {
		rows, err := r.e9()
		if err != nil {
			return nil, err
		}
		return NewResult(e9Table(rows)), nil
	},
}

// E9Row is one ablation measurement.
type E9Row struct {
	Ablation string
	Variant  string
	Metric   string
	Value    float64
}

// e9 runs every ablation variant as its own cell — each builds its own
// machine, so the whole table fans out at once.
func (r *Runner) e9() ([]E9Row, error) {
	var cells []func(*hw.MachinePool) ([]E9Row, error)
	one := func(cell func(pool *hw.MachinePool) (E9Row, error)) {
		cells = append(cells, func(pool *hw.MachinePool) ([]E9Row, error) {
			row, err := cell(pool)
			if err != nil {
				return nil, err
			}
			return []E9Row{row}, nil
		})
	}

	// (a) flip vs copy per packet size: driver-side cycles per packet.
	for _, size := range []int{64, 1500, 4096} {
		for _, copyMode := range []bool{false, true} {
			one(func(pool *hw.MachinePool) (E9Row, error) {
				s, err := NewXenStack(Config{CopyMode: copyMode, pool: pool})
				if err != nil {
					return E9Row{}, err
				}
				defer s.Close()
				d0 := s.DriverSideCycles()
				s.InjectPackets(50, size, 0)
				s.DrainRx(0)
				per := float64(s.DriverSideCycles()-d0) / 50
				variant := "flip"
				if copyMode {
					variant = "copy"
				}
				return E9Row{
					Ablation: "a: rx transport",
					Variant:  fmt.Sprintf("%s @%dB", variant, size),
					Metric:   "driver cyc/pkt",
					Value:    per,
				}, nil
			})
		}
	}

	// (b) ASID on/off for IPC round-trip cost. Take the x86 descriptor
	// and graft a tagged TLB onto it, holding everything else fixed.
	for _, tagged := range []bool{false, true} {
		one(func(pool *hw.MachinePool) (E9Row, error) {
			arch := hw.X86()
			arch.HasASID = tagged
			if tagged {
				arch.Costs.ASSwitch = 150 // no full flush needed
			}
			m := pool.Get(arch, &hw.MachineConfig{Frames: 256})
			defer pool.Put(m)
			k := mk.New(m)
			cs, err := k.NewSpace("c", mk.NilThread)
			if err != nil {
				return E9Row{}, err
			}
			ss, err := k.NewSpace("s", mk.NilThread)
			if err != nil {
				return E9Row{}, err
			}
			cl := k.NewThread(cs, "c", 1, nil)
			srv := k.NewThread(ss, "s", 2, func(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
				return msg, nil
			})
			t0 := m.Now()
			for i := 0; i < 100; i++ {
				if _, err := k.Call(cl.ID, srv.ID, mk.Msg{}); err != nil {
					return E9Row{}, err
				}
			}
			variant := "untagged TLB"
			if tagged {
				variant = "ASID-tagged TLB"
			}
			return E9Row{
				Ablation: "b: TLB tagging",
				Variant:  variant,
				Metric:   "IPC RT cyc",
				Value:    float64(m.Now()-t0) / 100,
			}, nil
		})
	}

	// (c) fast path on/off: syscall cost.
	for _, fast := range []bool{true, false} {
		one(func(pool *hw.MachinePool) (E9Row, error) {
			s, err := NewXenStack(Config{FastPath: fast, pool: pool})
			if err != nil {
				return E9Row{}, err
			}
			defer s.Close()
			t0 := s.M().Now()
			for i := 0; i < 100; i++ {
				if err := s.DoSyscall(0, guestos.SysGetPID, 0); err != nil {
					return E9Row{}, err
				}
			}
			variant := "fast path on"
			if !fast {
				variant = "fast path off"
			}
			return E9Row{
				Ablation: "c: trap-gate shortcut",
				Variant:  variant,
				Metric:   "syscall cyc",
				Value:    float64(s.M().Now()-t0) / 100,
			}, nil
		})
	}

	// (d) consolidation: storage decomposed (separate Parallax domain) vs
	// colocated with the driver domain (the super-VM). In both variants
	// the *storage host* is killed; the metric is how many of the two
	// services (network, storage) still work afterwards.
	for _, consolidated := range []bool{false, true} {
		one(func(pool *hw.MachinePool) (E9Row, error) {
			s, err := NewXenStack(Config{Guests: 2, Consolidated: consolidated, pool: pool})
			if err != nil {
				return E9Row{}, err
			}
			defer s.Close()
			s.KillStorage()
			working := 0
			if s.SendPackets(1, 64, 0) == nil {
				working++
			}
			if s.StorageWrite(0, 1, []byte("x")) == nil {
				working++
			}
			variant := "decomposed servers"
			if consolidated {
				variant = "super-VM (storage in dom0)"
			}
			return E9Row{
				Ablation: "d: consolidation",
				Variant:  variant,
				Metric:   "services alive after storage-host crash",
				Value:    float64(working),
			}, nil
		})
	}

	// (e) cache footprint: the §2.2 minimality argument. The same IPC
	// ping-pong between client and server, with the cache model attached,
	// comparing a small-footprint server (fits beside the client) against
	// a large-footprint one (thrashes the cache on every switch).
	for _, fat := range []bool{false, true} {
		one(func(pool *hw.MachinePool) (E9Row, error) {
			m := pool.Get(x86, &hw.MachineConfig{Frames: 256})
			defer pool.Put(m)
			cache := hw.NewCache(512, 10)
			serverLines := 120 // small server: both fit in 512
			if fat {
				serverLines = 512 // fat server: displaces the client entirely
			}
			k := mk.New(m)
			cs, err := k.NewSpace("c", mk.NilThread)
			if err != nil {
				return E9Row{}, err
			}
			ss, err := k.NewSpace("s", mk.NilThread)
			if err != nil {
				return E9Row{}, err
			}
			cache.SetFootprint(uint16(cs.ID), 120)
			cache.SetFootprint(uint16(ss.ID), serverLines)
			m.CPU.AttachCache(cache)
			cl := k.NewThread(cs, "c", 1, nil)
			srv := k.NewThread(ss, "s", 2, func(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
				return msg, nil
			})
			// Warm up once, then measure steady state.
			if _, err := k.Call(cl.ID, srv.ID, mk.Msg{}); err != nil {
				return E9Row{}, err
			}
			t0 := m.Now()
			for i := 0; i < 100; i++ {
				if _, err := k.Call(cl.ID, srv.ID, mk.Msg{}); err != nil {
					return E9Row{}, err
				}
			}
			variant := "small server (fits in cache)"
			if fat {
				variant = "fat server (thrashes cache)"
			}
			return E9Row{
				Ablation: "e: cache footprint",
				Variant:  variant,
				Metric:   "IPC RT cyc (steady state)",
				Value:    float64(m.Now()-t0) / 100,
			}, nil
		})
	}

	// (f) interrupt coalescing: batching RX interrupts amortises the
	// injection path — fewer KHardIRQInject entries per packet, lower
	// driver-side cost, at the price of delivery latency (not modelled
	// as a metric here; the count is the point).
	for _, batch := range []int{1, 8} {
		one(func(pool *hw.MachinePool) (E9Row, error) {
			m := pool.Get(x86, &hw.MachineConfig{Frames: 2048})
			defer pool.Put(m)
			h, d0, err := vmm.New(m, 128)
			if err != nil {
				return E9Row{}, err
			}
			nic := dev.NewNIC(m, dev.NICConfig{RingSize: 128, CoalesceRx: batch})
			disk := dev.NewDisk(m, dev.DiskConfig{})
			dd, err := vmmos.NewDriverDomain(h, d0, nic, disk)
			if err != nil {
				return E9Row{}, err
			}
			dU, err := h.CreateDomain("u", 64)
			if err != nil {
				return E9Row{}, err
			}
			gk := vmmos.NewGuestKernel(h, dU)
			if _, err := vmmos.ConnectNet(dd, gk); err != nil {
				return E9Row{}, err
			}
			driver0 := m.Rec.Cycles("vmm.dom0") + m.Rec.Cycles(vmm.HypervisorComponent)
			const pkts = 64
			for i := 0; i < pkts; i++ {
				nic.Inject(make([]byte, 256))
				m.IRQ.DispatchPending(h.Comp())
				h.PumpIO(16)
			}
			nic.FlushRxIRQ()
			m.IRQ.DispatchPending(h.Comp())
			h.PumpIO(16)
			driver := m.Rec.Cycles("vmm.dom0") + m.Rec.Cycles(vmm.HypervisorComponent) - driver0
			return E9Row{
				Ablation: "f: irq coalescing",
				Variant:  fmt.Sprintf("batch=%d (irqs=%d)", batch, nic.RxIRQsRaised()),
				Metric:   "driver cyc/pkt",
				Value:    float64(driver) / pkts,
			}, nil
		})
	}

	// (g) pure vs paravirtualisation: the same guest page-table update
	// stream through trap-and-emulate shadow paging (unmodified guest)
	// and through the explicit MMU hypercall (paravirtual guest) — the
	// cost gap §2.2 says drove VMMs away from "faithful representation
	// of the underlying hardware".
	for _, shadowMode := range []bool{true, false} {
		one(func(pool *hw.MachinePool) (E9Row, error) {
			m := pool.Get(x86, &hw.MachineConfig{Frames: 512})
			defer pool.Put(m)
			h, _, err := vmm.New(m, 64)
			if err != nil {
				return E9Row{}, err
			}
			dU, err := h.CreateDomain("u", 64)
			if err != nil {
				return E9Row{}, err
			}
			const updates = 60
			t0 := m.Clock.Now()
			if shadowMode {
				sh, err := h.EnableShadowMMU(dU.ID)
				if err != nil {
					return E9Row{}, err
				}
				t0 = m.Clock.Now()
				for i := 0; i < updates; i++ {
					if err := sh.GuestPTWrite(hw.VPN(0x900+i), i%32, hw.PermRW, true); err != nil {
						return E9Row{}, err
					}
				}
			} else {
				for i := 0; i < updates; i++ {
					if err := h.MMUUpdate(dU.ID, hw.VPN(0x900+i), i%32, hw.PermRW, true); err != nil {
						return E9Row{}, err
					}
				}
			}
			variant := "paravirtual hypercall"
			if shadowMode {
				variant = "shadow trap-and-emulate"
			}
			return E9Row{
				Ablation: "g: virtualisation style",
				Variant:  variant,
				Metric:   "PT update cyc",
				Value:    float64(m.Clock.Now()-t0) / updates,
			}, nil
		})
	}
	return runFuncs(r, cells)
}

// e9Table builds the registry table.
func e9Table(rows []E9Row) *ResultTable {
	t := NewResultTable(
		"E9 — ablations of the design decisions in DESIGN.md",
		Col("ablation", ""), Col("variant", ""), Col("metric", ""), Col("value", ""),
	)
	for _, r := range rows {
		t.AddRow(r.Ablation, r.Variant, r.Metric, r.Value)
	}
	return t
}
