package core

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/mk"
	"vmmk/internal/mkos"
	"vmmk/internal/vmm"
	"vmmk/internal/vmmos"
)

// E10 reproduces the extension-complexity claim of §2.2: "For extensions
// that are not an existing operating system, the VMM's interfaces
// significantly increase the complexity of software design." The same
// minimal service — a key-value cache with identical logic and identical
// per-request service cost — is built both ways (mkos.KVServer,
// vmmos.KVAppliance); the experiment counts the kernel interface surface
// each must program against to boot and to serve, plus per-request cost.

// e10Spec is E10's entry in the experiment table.
var e10Spec = Spec{
	ID:     "e10",
	Title:  "minimal-extension interface complexity",
	Params: []Param{paramSyscalls},
	Run: func(r *Runner, p Params) (*Result, error) {
		rows, err := r.e10(p.Int("syscalls"))
		if err != nil {
			return nil, err
		}
		return NewResult(e10Table(rows)), nil
	},
}

// E10Row is one platform's measurement.
type E10Row struct {
	Platform        string
	BootPrimitives  int      // distinct privileged interfaces used to set up
	BootNames       []string //  which ones
	ServePrimitives int      // distinct interfaces per steady-state request
	CyclesPerGet    uint64
}

// e10 boots each platform's extension in its own cell.
func (r *Runner) e10(n int) ([]E10Row, error) {
	cells := []func(*hw.MachinePool) ([]E10Row, error){
		// --- Microkernel: one thread, one handler, IPC only.
		func(pool *hw.MachinePool) ([]E10Row, error) {
			m := pool.Get(x86, &hw.MachineConfig{Frames: 512})
			defer pool.Put(m)
			k := mk.New(m)
			snap := m.Rec.Snapshot()
			kv, err := mkos.NewKVServer(k)
			if err != nil {
				return nil, err
			}
			cs, err := k.NewSpace("client", mk.NilThread)
			if err != nil {
				return nil, err
			}
			client := k.NewThread(cs, "client", 1, nil)
			if err := kv.Put(client.ID, "k", []byte("v")); err != nil {
				return nil, err
			}
			boot := m.Rec.DistinctPrimitives(snap, "")

			snap2 := m.Rec.Snapshot()
			t0 := m.Now()
			for i := 0; i < n; i++ {
				if _, ok, err := kv.Get(client.ID, "k"); err != nil || !ok {
					return nil, fmt.Errorf("E10 mk get: ok=%v err=%v", ok, err)
				}
			}
			serve := m.Rec.DistinctPrimitives(snap2, "")
			return []E10Row{{
				Platform:        "mk",
				BootPrimitives:  len(boot),
				BootNames:       kindNames(boot),
				ServePrimitives: len(serve),
				CyclesPerGet:    uint64(m.Now()-t0) / uint64(n),
			}}, nil
		},
		// --- VMM: a domain with hooks, channels and grants.
		func(pool *hw.MachinePool) ([]E10Row, error) {
			m := pool.Get(x86, &hw.MachineConfig{Frames: 1024})
			defer pool.Put(m)
			h, _, err := vmm.New(m, 64)
			if err != nil {
				return nil, err
			}
			snap := m.Rec.Snapshot()
			appDom, err := h.CreateDomain("kv", 64)
			if err != nil {
				return nil, err
			}
			app := vmmos.NewKVAppliance(h, appDom)
			clDom, err := h.CreateDomain("client", 64)
			if err != nil {
				return nil, err
			}
			cgk := vmmos.NewGuestKernel(h, clDom)
			cl, err := app.Connect(cgk)
			if err != nil {
				return nil, err
			}
			if err := cl.Put("k", []byte("v")); err != nil {
				return nil, err
			}
			boot := m.Rec.DistinctPrimitives(snap, "")

			snap2 := m.Rec.Snapshot()
			t0 := m.Now()
			for i := 0; i < n; i++ {
				if _, ok, err := cl.Get("k"); err != nil || !ok {
					return nil, fmt.Errorf("E10 vmm get: ok=%v err=%v", ok, err)
				}
			}
			serve := m.Rec.DistinctPrimitives(snap2, "")
			return []E10Row{{
				Platform:        "vmm",
				BootPrimitives:  len(boot),
				BootNames:       kindNames(boot),
				ServePrimitives: len(serve),
				CyclesPerGet:    uint64(m.Now()-t0) / uint64(n),
			}}, nil
		},
	}
	return runFuncs(r, cells)
}

// e10Table builds the registry table.
func e10Table(rows []E10Row) *ResultTable {
	t := NewResultTable(
		"E10 — minimal extension (KV cache): interface surface and cost (paper §2.2)",
		Col("platform", ""), Col("boot primitives", "primitives"),
		Col("serve primitives", "primitives"), Col("cyc/get", "cycles"),
	)
	for _, r := range rows {
		t.AddRow(r.Platform, r.BootPrimitives, r.ServePrimitives, r.CyclesPerGet)
	}
	return t
}
