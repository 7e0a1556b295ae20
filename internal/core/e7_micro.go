package core

import (
	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/mk"
	"vmmk/internal/vmm"
)

// E7 is the primitive microbenchmark table: the raw cycle cost of each
// kernel mechanism on identical hardware — the cost structure every
// argument in §2.2/§3.2 rests on. IPC round trips, hypercalls, event
// notifications, page flips, grant copies and world switches, measured
// directly.

// e7Spec is E7's entry in the experiment table.
var e7Spec = Spec{
	ID:     "e7",
	Title:  "primitive microbenchmarks",
	Params: []Param{paramSyscalls},
	Run: func(r *Runner, p Params) (*Result, error) {
		rows, err := r.e7(p.Int("syscalls"))
		if err != nil {
			return nil, err
		}
		return NewResult(e7Table(rows)), nil
	},
}

// E7Row is one primitive's cost.
type E7Row struct {
	Op     string
	System string
	Cycles uint64
}

// e7 runs the three measurement blocks — microkernel, VMM and bare
// hardware — as independent cells, each on its own machine. Primitives
// within a block stay sequential because they share that block's stack.
func (r *Runner) e7(n int) ([]E7Row, error) {
	mean := func(rows *[]E7Row) func(op, sys string, total hw.Cycles) {
		return func(op, sys string, total hw.Cycles) {
			*rows = append(*rows, E7Row{Op: op, System: sys, Cycles: uint64(total) / uint64(n)})
		}
	}

	// --- Microkernel primitives.
	mkCell := func(pool *hw.MachinePool) ([]E7Row, error) {
		var rows []E7Row
		add := mean(&rows)
		m := pool.Get(x86, &e7MKMach)
		defer pool.Put(m)
		k := mk.New(m)
		cs, err := k.NewSpace("c", mk.NilThread)
		if err != nil {
			return nil, err
		}
		ss, err := k.NewSpace("s", mk.NilThread)
		if err != nil {
			return nil, err
		}
		client := k.NewThread(cs, "c", 1, nil)
		echo := k.NewThread(ss, "s", 2, func(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
			return msg, nil
		})

		t0 := m.Now()
		for i := 0; i < n; i++ {
			if _, err := k.Call(client.ID, echo.ID, mk.Msg{Words: []uint64{1}}); err != nil {
				return nil, err
			}
		}
		add("IPC call round trip (short)", "mk", m.Now()-t0)

		t0 = m.Now()
		for i := 0; i < n; i++ {
			if _, err := k.Call(client.ID, echo.ID, mk.Msg{Data: make([]byte, 1024)}); err != nil {
				return nil, err
			}
		}
		add("IPC call round trip (1KB string)", "mk", m.Now()-t0)

		t0 = m.Now()
		for i := 0; i < n; i++ {
			if err := k.Send(client.ID, echo.ID, mk.Msg{}); err != nil {
				return nil, err
			}
		}
		add("IPC one-way send", "mk", m.Now()-t0)

		// A separate absorbing server for map items (an echo would try to
		// map the received pages back from addresses it never had).
		as, err := k.NewSpace("absorb", mk.NilThread)
		if err != nil {
			return nil, err
		}
		absorb := k.NewThread(as, "absorb", 2, func(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
			return mk.Msg{}, nil
		})
		if _, err := k.AllocAndMap(cs, 0, n, hw.PermRW); err != nil {
			return nil, err
		}
		t0 = m.Now()
		for i := 0; i < n; i++ {
			_, err := k.Call(client.ID, absorb.ID, mk.Msg{
				Map: []mk.MapItem{{SrcVPN: hw.VPN(i), DstVPN: hw.VPN(0x1000 + i), Count: 1, Perms: hw.PermR}},
			})
			if err != nil {
				return nil, err
			}
		}
		add("IPC map transfer (1 page)", "mk", m.Now()-t0)
		return rows, nil
	}

	// --- VMM primitives.
	vmmCell := func(pool *hw.MachinePool) ([]E7Row, error) {
		var rows []E7Row
		add := mean(&rows)
		m := pool.Get(x86, &e7VMMMach)
		defer pool.Put(m)
		h, d0, err := vmm.New(m, 300)
		if err != nil {
			return nil, err
		}
		dU, err := h.CreateDomain("u", 64)
		if err != nil {
			return nil, err
		}
		dU.SetHooks(vmm.GuestHooks{OnEvent: func(vmm.Port) {}, OnSyscall: func(uint32, []uint64) []uint64 { return nil }})

		t0 := m.Now()
		for i := 0; i < n; i++ {
			if err := h.Hypercall(dU.ID, "nop", 0); err != nil {
				return nil, err
			}
		}
		add("hypercall (nop)", "vmm", m.Now()-t0)

		p0, _, err := h.BindChannel(d0.ID, dU.ID)
		if err != nil {
			return nil, err
		}
		t0 = m.Now()
		for i := 0; i < n; i++ {
			if err := h.NotifyChannel(d0.ID, p0); err != nil {
				return nil, err
			}
		}
		add("event-channel notify + upcall", "vmm", m.Now()-t0)

		t0 = m.Now()
		for i := 0; i < n; i++ {
			ref, err := h.GrantAccess(d0.ID, d0.FrameAt(i), dU.ID, false)
			if err != nil {
				return nil, err
			}
			if _, err := h.GrantTransfer(dU.ID, d0.ID, ref); err != nil {
				return nil, err
			}
		}
		add("grant + page flip", "vmm", m.Now()-t0)

		ref, err := h.GrantAccess(d0.ID, d0.FrameAt(n+1), dU.ID, true)
		if err != nil {
			return nil, err
		}
		dst := dU.FrameAt(0)
		t0 = m.Now()
		for i := 0; i < n; i++ {
			if err := h.GrantCopy(dU.ID, d0.ID, ref, dst, 1024); err != nil {
				return nil, err
			}
		}
		add("grant copy (1KB)", "vmm", m.Now()-t0)

		t0 = m.Now()
		for i := 0; i < n; i++ {
			// Alternate hypercalls between domains to force world
			// switches.
			if err := h.Hypercall(d0.ID, "nop", 0); err != nil {
				return nil, err
			}
			if err := h.Hypercall(dU.ID, "nop", 0); err != nil {
				return nil, err
			}
		}
		add("world switch pair (2 domains)", "vmm", m.Now()-t0)

		t0 = m.Now()
		for i := 0; i < n; i++ {
			if _, err := h.GuestSyscall(dU.ID, guestos.SysGetPID, nil); err != nil {
				return nil, err
			}
		}
		add("guest syscall (bounced)", "vmm", m.Now()-t0)
		return rows, nil
	}

	// --- Shared hardware costs for context.
	hwCell := func(pool *hw.MachinePool) ([]E7Row, error) {
		var rows []E7Row
		add := mean(&rows)
		m := pool.Get(x86, nil)
		defer pool.Put(m)
		hwc := m.Rec.Intern("hw")
		t0 := m.Now()
		// One aggregate for the whole batch: n sysenter-style entries (the
		// same entry hypercalls use) plus n exits, identical in total to
		// the per-iteration loop.
		m.CPU.SetRing(hw.Ring3)
		m.CPU.TrapReturnN(hwc, true, hw.Ring3, uint64(n))
		add("bare trap + return", "hw", m.Now()-t0)

		pts := [2]hw.PageTable{hw.NewPageTable(1), hw.NewPageTable(2)}
		t0 = m.Now()
		for i := 0; i < n; i++ {
			m.CPU.SwitchSpace(hwc, &pts[i%2])
		}
		add("address-space switch (untagged)", "hw", m.Now()-t0)
		return rows, nil
	}

	return runFuncs(r, []func(*hw.MachinePool) ([]E7Row, error){mkCell, vmmCell, hwCell})
}

// Machine geometries for the E7 measurement blocks, hoisted so repeated
// runs land on stable machine-pool identities.
var (
	e7MKMach  = hw.MachineConfig{Frames: 512}
	e7VMMMach = hw.MachineConfig{Frames: 1024}
)

// e7Table builds the registry table.
func e7Table(rows []E7Row) *ResultTable {
	t := NewResultTable(
		"E7 — primitive microbenchmarks (mean cycles/op on the x86 model)",
		Col("operation", ""), Col("system", ""), Col("cycles", "cycles"),
	)
	for _, r := range rows {
		t.AddRow(r.Op, r.System, r.Cycles)
	}
	return t
}
