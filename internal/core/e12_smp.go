package core

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/mk"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// E12 measures what E1–E11 deliberately hold at zero: the cost of cross-CPU
// coordination. The paper's comparison — a VMM's per-domain vCPUs versus a
// microkernel's threads, each placed on CPUs — only separates on
// multiprocessors, where the two structures pay differently for IPIs and
// TLB shootdowns. Neither kernel moves work between CPUs on its own, so
// every cost follows placement. Three workloads sweep core count on all
// three platform stacks:
//
//   - ipc-pingpong: a client on the boot CPU round-robins synchronous
//     round trips over one partner per core. Cross-CPU rendezvous pays
//     wake/reply IPIs (mk), an event-delivery kick (vmm) or reschedule
//     IPIs (native), so the SMP tax climbs with the fraction of partners
//     that live remotely: 0 at one core, (n-1)/n of ops at n.
//   - dirty-scan: pages of a multi-vCPU guest (vmm, via log-dirty arming),
//     a multi-threaded space (mk, via unmap) or a kernel buffer pool
//     (native) are invalidated while every core may cache translations —
//     each invalidation shoots down n-1 TLBs, so cost grows linearly.
//   - driver-io: the full stacks from E1/E8 with guests placed on non-boot
//     CPUs and drivers on the boot CPU; RX delivery and storage writes pay
//     whatever IPIs and shootdowns the structure implies.
//
// Every cell is deterministic (no PRNG; fixed write/visit patterns), so
// the table is byte-identical at any -parallel width, and every 1-CPU row
// shows zero IPIs and shootdowns — the regression guard that E1–E11's
// uniprocessor accounting is untouched.

// e12Spec is E12's entry in the experiment table.
var e12Spec = Spec{
	ID:    "e12",
	Title: "SMP scaling: IPIs and TLB shootdown vs cores",
	Params: []Param{{
		Name: "cpus", Kind: ParamIntList, DefaultList: []int{1, 2, 4, 8}, Max: hw.MaxCPUs,
		Unit: "cores", Help: "comma-separated core counts for the E12 SMP sweep",
	}},
	Run: func(r *Runner, p Params) (*Result, error) {
		rows, err := r.e12(p.IntList("cpus"))
		if err != nil {
			return nil, err
		}
		return NewResult(e12Table(rows)), nil
	},
}

// The workloads' fixed sizes.
const (
	e12Ops     = 240 // ping-pong round trips per cell
	e12Pages   = 64  // dirty-scan pages per round (two rounds per cell)
	e12Packets = 24  // driver-io RX packets per guest
)

// E12Row is one (workload, platform, core count) measurement.
type E12Row struct {
	Workload   string
	Platform   string
	CPUs       int
	Ops        int    // logical operations the workload performed
	IPIs       uint64 // inter-processor interrupts delivered
	Shootdowns uint64 // remote TLB invalidations performed
	SMPCyc     uint64 // cycles attributed to cpu<n>.ipi / cpu<n>.shootdown
	TotalCyc   uint64 // whole-machine virtual time consumed
}

// e12 fans one cell out per (workload, platform, core count) triple, one
// core count per entry of cpus. Rows group each (workload, platform) pair's
// cores-vs-cost curve contiguously.
func (r *Runner) e12(cpus []int) ([]E12Row, error) {
	type cellCfg struct {
		workload, platform string
		ncpus              int
	}
	var cells []cellCfg
	for _, w := range []string{"ipc-pingpong", "dirty-scan", "driver-io"} {
		for _, p := range []string{"vmm", "mk", "native"} {
			for _, n := range cpus {
				cells = append(cells, cellCfg{w, p, n})
			}
		}
	}
	return RunCells(r, len(cells), func(pool *hw.MachinePool, i int) (E12Row, error) {
		c := cells[i]
		switch c.workload {
		case "ipc-pingpong":
			switch c.platform {
			case "vmm":
				return e12PingPongVMM(pool, c.ncpus)
			case "mk":
				return e12PingPongMK(pool, c.ncpus)
			default:
				return e12PingPongNative(pool, c.ncpus)
			}
		case "dirty-scan":
			switch c.platform {
			case "vmm":
				return e12DirtyScanVMM(pool, c.ncpus)
			case "mk":
				return e12DirtyScanMK(pool, c.ncpus)
			default:
				return e12DirtyScanNative(pool, c.ncpus)
			}
		default:
			return e12DriverIO(pool, c.platform, c.ncpus)
		}
	})
}

// Machine geometries for the E12 cells, one per workload/platform pair.
// Only NCPUs varies per cell, applied by e12Mach, and only NCPUs keys the
// machine pool: a pooled machine of a cell's CPU count serves any of these
// geometries.
var (
	e12PingPongMKMach  = hw.MachineConfig{Frames: 1024}
	e12PingPongVMMMach = hw.MachineConfig{Frames: 2048}
	e12NativeMach      = hw.MachineConfig{Frames: 256}
	e12ScanVMMMach     = hw.MachineConfig{Frames: e12Pages + e12ScanHeadroom}
	e12ScanMKMach      = hw.MachineConfig{Frames: 2*e12Pages + e12ScanHeadroom}
)

// e12ScanHeadroom is the frame slack the dirty-scan machines add over the
// scanned page count (hypervisor/kernel metadata plus the mapped pool).
const e12ScanHeadroom = 512

// e12Mach binds a hoisted geometry to the cell's core count.
func e12Mach(base hw.MachineConfig, ncpus int) *hw.MachineConfig {
	base.NCPUs = ncpus
	return &base
}

// e12Row reduces a finished cell's machine to its row.
func e12Row(m *hw.Machine, workload, platform string, ncpus, ops int) E12Row {
	return E12Row{
		Workload:   workload,
		Platform:   platform,
		CPUs:       ncpus,
		Ops:        ops,
		IPIs:       m.Rec.Counts(trace.KIPI),
		Shootdowns: m.Rec.Counts(trace.KTLBShootdown),
		SMPCyc:     m.Rec.CyclesPrefix("cpu"),
		TotalCyc:   uint64(m.Now()),
	}
}

// e12PingPongMK: a client thread on the boot CPU calls one echo server per
// CPU, round-robin. Calls to servers homed on other CPUs pay the wake and
// reply IPIs the kernel's cross-CPU IPC path charges.
func e12PingPongMK(pool *hw.MachinePool, ncpus int) (E12Row, error) {
	m := pool.Get(x86, e12Mach(e12PingPongMKMach, ncpus))
	defer pool.Put(m)
	k := mk.New(m)
	cs, err := k.NewSpace("client", mk.NilThread)
	if err != nil {
		return E12Row{}, err
	}
	client := k.NewThread(cs, "client", 5, nil)
	servers := make([]*mk.Thread, ncpus)
	for c := 0; c < ncpus; c++ {
		ss, err := k.NewSpace(fmt.Sprintf("echo%d", c), mk.NilThread)
		if err != nil {
			return E12Row{}, err
		}
		comp := ss.Comp()
		t := k.NewThread(ss, ss.Name, 5, func(kk *mk.Kernel, _ mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
			kk.M.CPU.Work(comp, 50)
			return msg, nil
		})
		if c > 0 {
			if err := k.SetAffinity(t.ID, c); err != nil {
				return E12Row{}, err
			}
		}
		servers[c] = t
	}
	msg := mk.Msg{Label: 1, Words: []uint64{0xE12}}
	for j := 0; j < e12Ops; j++ {
		if _, err := k.Call(client.ID, servers[j%ncpus].ID, msg); err != nil {
			return E12Row{}, err
		}
	}
	return e12Row(m, "ipc-pingpong", "mk", ncpus, e12Ops), nil
}

// e12PingPongVMM: Dom0 notifies an event channel to one peer domain per
// CPU, round-robin. Delivery into a domain whose vCPU is placed on another
// pCPU pays the kick IPI.
func e12PingPongVMM(pool *hw.MachinePool, ncpus int) (E12Row, error) {
	m := pool.Get(x86, e12Mach(e12PingPongVMMMach, ncpus))
	defer pool.Put(m)
	h, _, err := vmm.New(m, 128)
	if err != nil {
		return E12Row{}, err
	}
	ports := make([]vmm.Port, ncpus)
	for c := 0; c < ncpus; c++ {
		d, err := h.CreateDomain(fmt.Sprintf("peer%d", c), 16)
		if err != nil {
			return E12Row{}, err
		}
		if c > 0 {
			if err := h.PlaceVCPUs(d.ID, hw.CPUSet(1)<<c); err != nil {
				return E12Row{}, err
			}
		}
		px, _, err := h.BindChannel(vmm.Dom0, d.ID)
		if err != nil {
			return E12Row{}, err
		}
		ports[c] = px
	}
	for j := 0; j < e12Ops; j++ {
		if err := h.NotifyChannel(vmm.Dom0, ports[j%ncpus]); err != nil {
			return E12Row{}, err
		}
	}
	return e12Row(m, "ipc-pingpong", "vmm", ncpus, e12Ops), nil
}

// e12PingPongNative: a monolithic kernel's cross-core pipe ping-pong — one
// syscall per round trip plus, for a partner on another core, the
// reschedule IPI each direction. No protection-domain crossing, but the
// hardware coordination cost is the same order as the structured systems'.
func e12PingPongNative(pool *hw.MachinePool, ncpus int) (E12Row, error) {
	m := pool.Get(x86, e12Mach(e12NativeMach, ncpus))
	defer pool.Put(m)
	comp := m.Rec.Intern(NativeComponent)
	// The per-round-trip costs are uniform, so the whole run lands as
	// aggregates: ops trap/return pairs, ops quanta of pipe work, and per
	// remote partner the wake/reply IPI pairs its share of the round-robin
	// earns. Totals match the per-item loop exactly.
	m.CPU.SetRing(hw.Ring3)
	m.CPU.TrapReturnN(comp, m.Arch.HasFastSyscall, hw.Ring3, e12Ops)
	m.CPU.WorkN(comp, 200, e12Ops)
	for t := 1; t < ncpus; t++ {
		rounds := uint64(e12Ops / ncpus)
		if t < e12Ops%ncpus {
			rounds++
		}
		m.SendIPIN(0, t, rounds) // wake the partner's core
		m.SendIPIN(t, 0, rounds) // its reply wakes ours
	}
	return e12Row(m, "ipc-pingpong", "native", ncpus, e12Ops), nil
}

// e12DirtyScanVMM: a guest with one vCPU per pCPU runs two log-dirty
// rounds over its pages. Each (re)arm write-protects the guest and must
// shoot the stale writable translations out of every pCPU hosting one of
// its vCPUs — Xen's log-dirty broadcast, growing linearly with placement.
func e12DirtyScanVMM(pool *hw.MachinePool, ncpus int) (E12Row, error) {
	m := pool.Get(x86, e12Mach(e12ScanVMMMach, ncpus))
	defer pool.Put(m)
	h, _, err := vmm.New(m, 64)
	if err != nil {
		return E12Row{}, err
	}
	d, err := h.CreateDomain("smpguest", e12Pages)
	if err != nil {
		return E12Row{}, err
	}
	if ncpus > 1 {
		if err := h.PlaceVCPUs(d.ID, m.AllCPUs()); err != nil {
			return E12Row{}, err
		}
	}
	dl, err := h.EnableDirtyLog(d.ID)
	if err != nil {
		return E12Row{}, err
	}
	for round := 0; round < 2; round++ {
		for p := 0; p < e12Pages; p++ {
			if err := h.GuestMemWrite(d.ID, p, 0, []byte{byte(round)}); err != nil {
				return E12Row{}, err
			}
		}
		dl.Rearm()
	}
	return e12Row(m, "dirty-scan", "vmm", ncpus, 2*e12Pages), nil
}

// e12DirtyScanMK: a space with one worker thread installed per CPU has
// pages mapped and unmapped under it, twice. Each unmap invalidates
// locally and shoots down every other CPU currently running the space.
func e12DirtyScanMK(pool *hw.MachinePool, ncpus int) (E12Row, error) {
	m := pool.Get(x86, e12Mach(e12ScanMKMach, ncpus))
	defer pool.Put(m)
	k := mk.New(m)
	s, err := k.NewSpace("scan", mk.NilThread)
	if err != nil {
		return E12Row{}, err
	}
	for c := 0; c < ncpus; c++ {
		t := k.NewThread(s, fmt.Sprintf("scan.w%d", c), 5, nil)
		if c > 0 {
			if err := k.SetAffinity(t.ID, c); err != nil {
				return E12Row{}, err
			}
		}
	}
	for c := 0; c < ncpus; c++ {
		k.ScheduleOn(c) // install each CPU's worker so the space is live there
	}
	const base = hw.VPN(0x1000)
	for round := 0; round < 2; round++ {
		if _, err := k.AllocAndMap(s, base, e12Pages, hw.PermRW); err != nil {
			return E12Row{}, err
		}
		for p := 0; p < e12Pages; p++ {
			k.UnmapPage(s, base+hw.VPN(p))
		}
	}
	return e12Row(m, "dirty-scan", "mk", ncpus, 2*e12Pages), nil
}

// e12DirtyScanNative: the monolithic baseline tears down a kernel buffer
// pool — per-page PTE update, local invalidation, and on SMP a
// single-entry shootdown broadcast to every other core.
func e12DirtyScanNative(pool *hw.MachinePool, ncpus int) (E12Row, error) {
	m := pool.Get(x86, e12Mach(e12NativeMach, ncpus))
	defer pool.Put(m)
	comp := m.Rec.Intern(NativeComponent)
	const base = hw.VPN(0x1000)
	vpns := make([]hw.VPN, e12Pages)
	for p := range vpns {
		vpns[p] = base + hw.VPN(p)
	}
	// A teardown round's per-page costs are uniform, so each round charges
	// as three aggregates — PTE updates, local invalidations, and the
	// remote shootdown broadcast — with the local TLB state still
	// invalidated entry by entry. Totals match the per-page loop exactly.
	for round := 0; round < 2; round++ {
		m.CPU.WorkN(comp, m.Arch.Costs.PTEUpdate, e12Pages)
		for _, vpn := range vpns {
			m.CPU.TLB.FlushEntry(0, vpn)
		}
		m.CPU.WorkN(comp, m.Arch.Costs.TLBFlushEntry, e12Pages)
		m.ShootdownEntries(0, m.AllCPUs(), 0, vpns)
	}
	return e12Row(m, "dirty-scan", "native", ncpus, 2*e12Pages), nil
}

// e12DriverIO: the full platform stacks under the E1-style I/O workload,
// with guests spread over non-boot CPUs (Config.NCPUs) and the drivers on
// the boot CPU: RX delivery, drain and storage writes pay whatever
// cross-CPU coordination each structure implies.
func e12DriverIO(pool *hw.MachinePool, platform string, ncpus int) (E12Row, error) {
	cfg := Config{Guests: 2, NCPUs: ncpus, pool: pool}
	var (
		p   Platform
		err error
	)
	switch platform {
	case "vmm":
		p, err = NewXenStack(cfg)
	case "mk":
		p, err = NewMKStack(cfg)
	default:
		p, err = NewNativeStack(cfg)
	}
	if err != nil {
		return E12Row{}, err
	}
	defer p.Close()
	guests := cfg.Guests
	if platform == "native" {
		guests = 1
	}
	ops := 0
	for g := 0; g < guests; g++ {
		p.InjectPackets(e12Packets, 256, g)
		ops += p.DrainRx(g)
		for b := 0; b < 4; b++ {
			if err := p.StorageWrite(g, uint64(b+1), []byte("e12-smp")); err != nil {
				return E12Row{}, err
			}
			ops++
		}
	}
	return e12Row(p.M(), "driver-io", platform, ncpus, ops), nil
}

// e12Table builds the registry table.
func e12Table(rows []E12Row) *ResultTable {
	t := NewResultTable(
		"E12 — SMP scaling: IPI and TLB-shootdown cost vs core count",
		Col("workload", ""), Col("platform", ""), Col("cpus", "cores"), Col("ops", "ops"),
		Col("IPIs", "interrupts"), Col("shootdowns", "invalidations"),
		Col("smp cyc", "cycles"), Col("total cyc", "cycles"),
	)
	for _, r := range rows {
		t.AddRow(r.Workload, r.Platform, r.CPUs, r.Ops, r.IPIs, r.Shootdowns, r.SMPCyc, r.TotalCyc)
	}
	return t
}
