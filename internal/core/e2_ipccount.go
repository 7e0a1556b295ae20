package core

import (
	"fmt"

	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/simrand"
)

// E2 tests the rebuttal's central quantitative claim (§3.2): "A Xen-based
// system performs essentially the same number of IPC operations as a
// comparable microkernel-based system." Identical workloads run on both
// stacks; the recorder counts every IPC-equivalent boundary crossing
// (defined in trace.Kind.IsIPCEquivalent) on each.

// e2Spec is E2's entry in the experiment table.
var e2Spec = Spec{
	ID:    "e2",
	Title: "IPC-equivalent operation counts",
	Run: func(r *Runner, _ Params) (*Result, error) {
		rows, err := r.e2()
		if err != nil {
			return nil, err
		}
		return NewResult(e2Table(rows)), nil
	},
}

// E2Row is one workload's comparison.
type E2Row struct {
	Workload string
	MKOps    uint64
	VMMOps   uint64
	Ratio    float64 // VMM / MK
}

// e2Workloads is the canonical set: network echo, syscall mix, storage I/O,
// and the composite web serve. Each seeded stream is drawn afresh per
// platform, so both stacks replay exactly the same operations.
var e2Workloads = []struct {
	name string
	run  func(p Platform) error
}{
	{"net-echo-64B", func(p Platform) error {
		p.InjectPackets(50, 64, 0)
		p.DrainRx(0)
		return p.SendPackets(50, 64, 0)
	}},
	{"net-echo-1500B", func(p Platform) error {
		p.InjectPackets(50, 1500, 0)
		p.DrainRx(0)
		return p.SendPackets(50, 1500, 0)
	}},
	{"syscall-mix", func(p Platform) error {
		// A getpid-heavy 8:1:1 mix of getpid, console write and yield,
		// approximating a syscall microbenchmark.
		r := simrand.New(42)
		for i := 0; i < 200; i++ {
			no, arg := guestos.SysGetPID, uint64(0)
			switch r.Intn(10) {
			case 8:
				no, arg = guestos.SysWrite, uint64('a'+r.Intn(26))
			case 9:
				no = guestos.SysYield
			}
			if err := p.DoSyscall(0, no, arg); err != nil {
				return err
			}
		}
		return nil
	}},
	{"storage-io", func(p Platform) error {
		r := simrand.New(7)
		for i := 0; i < 30; i++ {
			block := r.Uint64n(16)
			var err error
			if r.Bool(0.5) {
				err = p.StorageWrite(0, block, []byte("e2"))
			} else {
				_, err = p.StorageRead(0, block)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}},
	{"web-serve", func(p Platform) error {
		for _, req := range webStream(20, 16, 3) {
			p.InjectPackets(1, req.reqSize, 0)
			p.DrainRx(0)
			if _, err := p.StorageRead(0, req.block); err != nil {
				return err
			}
			if err := p.SendPackets(1, req.respSize, 0); err != nil {
				return err
			}
		}
		return nil
	}},
}

// e2 runs the comparison on this runner's worker pool: one cell per
// workload, each booting a fresh pair of stacks.
func (r *Runner) e2() ([]E2Row, error) {
	return RunCells(r, len(e2Workloads), func(pool *hw.MachinePool, i int) (E2Row, error) {
		w := e2Workloads[i]
		counts := map[string]uint64{}
		for _, build := range []func(Config) (Platform, error){
			func(c Config) (Platform, error) { return NewMKStack(c) },
			func(c Config) (Platform, error) { return NewXenStack(c) },
		} {
			p, err := build(Config{pool: pool})
			if err != nil {
				return E2Row{}, err
			}
			snap := p.M().Rec.Snapshot()
			if err := w.run(p); err != nil {
				return E2Row{}, fmt.Errorf("E2 %s on %s: %w", w.name, p.Name(), err)
			}
			counts[p.Name()] = p.M().Rec.IPCEquivalentSince(snap)
			p.Close()
		}
		row := E2Row{Workload: w.name, MKOps: counts["mk"], VMMOps: counts["vmm"]}
		if row.MKOps > 0 {
			row.Ratio = float64(row.VMMOps) / float64(row.MKOps)
		}
		return row, nil
	})
}

// e2Table builds the comparison's registry table.
func e2Table(rows []E2Row) *ResultTable {
	t := NewResultTable(
		"E2 — IPC-equivalent operations per workload (paper §3.2: counts should be essentially equal)",
		Col("workload", ""), Col("mk ops", "ops"), Col("vmm ops", "ops"), Col("vmm/mk", "ratio"),
	)
	for _, r := range rows {
		t.AddRow(r.Workload, r.MKOps, r.VMMOps, fmt.Sprintf("%.2fx", r.Ratio))
	}
	return t
}
