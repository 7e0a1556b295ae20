package core

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/simrand"
	"vmmk/internal/vmm"
)

// E11 measures the downtime/bandwidth trade-off of live pre-copy migration
// — the management workload §3.3's "treat the OS as a component" argument
// culminates in. A guest with a controlled dirty rate is moved between two
// hypervisors once per cell: with a zero round budget the move is the
// stop-and-copy baseline (the guest freezes for the whole copy); with a
// positive budget vmm.MigrateLive streams pages while the guest keeps
// writing, paying re-sent pages to shrink the final blackout. The table
// reports downtime cycles, total pages transferred and rounds used per
// (dirty rate × round budget) cell.

// e11WSSCutoff is the writable-working-set cutoff every pre-copy cell
// converges early at.
const e11WSSCutoff = 2

// e11Spec is E11's entry in the experiment table.
var e11Spec = Spec{
	ID:    "e11",
	Title: "live pre-copy migration downtime",
	Params: []Param{{
		Name: "frames", Kind: ParamInt, DefaultInt: 96, Max: 1 << 20,
		Unit: "pages", Help: "guest memory pages for E11 migrations",
	}, {
		Name: "rounds", Kind: ParamInt, DefaultInt: 4, Max: 64,
		Unit: "rounds", Help: "max pre-copy round budget for E11",
	}, {
		Name: "dirty", Kind: ParamInt, DefaultInt: 48, Max: 1 << 20,
		Unit: "pages/round", Help: "peak dirty rate (pages/round) for E11",
	}},
	Run: func(r *Runner, p Params) (*Result, error) {
		rows, err := r.e11(p.Int("frames"), p.Int("rounds"), p.Int("dirty"))
		if err != nil {
			return nil, err
		}
		return NewResult(e11Table(rows)), nil
	},
}

// E11Row is one migration cell's measurement.
type E11Row struct {
	DirtyRate   int    // pages written per round
	Budget      int    // pre-copy round budget (0 = stop-and-copy)
	Mode        string // "stop&copy" or "pre-copy"
	Rounds      int    // rounds actually run
	PagesMoved  int    // total page transfers, re-sends included
	DowntimeCyc uint64 // guest-observable blackout, both machines
	TotalCyc    uint64 // whole-migration cycles, both machines
}

// e11 migrates a guest of frames pages once per (dirty rate, round
// budget) pair. The rates are quiet, medium and peak: 0, dirty/6 (at least
// one page) and dirty pages per round. The budgets are 0 (the stop-and-copy
// baseline), 1 and rounds. Every cell boots its own source and destination
// machines and seeds its own write stream, so the table is byte-identical
// at any -parallel width.
func (r *Runner) e11(frames, rounds, dirty int) ([]E11Row, error) {
	type cellCfg struct{ rate, budget int }
	var cells []cellCfg
	for _, rate := range []int{0, max(1, dirty/6), dirty} {
		for _, budget := range []int{0, 1, rounds} {
			cells = append(cells, cellCfg{rate, budget})
		}
	}
	return RunCells(r, len(cells), func(pool *hw.MachinePool, i int) (E11Row, error) {
		c := cells[i]
		return e11Cell(pool, frames, c.rate, c.budget)
	})
}

// e11MachHeadroom is the frame slack each migration machine carries over
// the guest's pseudo-physical size (hypervisor metadata, shadow state), the
// same for the source and destination machines of every cell.
const e11MachHeadroom = 256

// e11Mach is the geometry both migration endpoints boot with.
func e11Mach(frames int) *hw.MachineConfig {
	return &hw.MachineConfig{Frames: frames + e11MachHeadroom}
}

// e11Cell boots a source stack with one guest and an empty destination
// hypervisor, then migrates the guest while it writes rate pages per round.
func e11Cell(pool *hw.MachinePool, frames, rate, budget int) (E11Row, error) {
	srcM := pool.Get(x86, e11Mach(frames))
	defer pool.Put(srcM)
	srcH, _, err := vmm.New(srcM, 64)
	if err != nil {
		return E11Row{}, err
	}
	dom, err := srcH.CreateDomain("mig", frames)
	if err != nil {
		return E11Row{}, err
	}
	// Deterministic page contents, plus a marker the cell verifies after
	// the move — the experiment doubles as an end-to-end correctness check.
	const marker = "e11-travels-whole"
	for gpn := 0; gpn < frames; gpn++ {
		srcM.Mem.Write(dom.FrameAt(gpn), 0, []byte{byte(gpn)})
	}
	srcM.Mem.Write(dom.FrameAt(frames-1), 16, []byte(marker))

	dstM := pool.Get(x86, e11Mach(frames))
	defer pool.Put(dstM)
	dstH, _, err := vmm.New(dstM, 64)
	if err != nil {
		return E11Row{}, err
	}

	var (
		moved *vmm.Domain
		row   = E11Row{DirtyRate: rate, Budget: budget}
	)
	if budget == 0 {
		s0, d0 := srcM.Now(), dstM.Now()
		moved, err = vmm.Migrate(srcH, dom.ID, dstH)
		if err != nil {
			return E11Row{}, err
		}
		down := uint64(srcM.Now()-s0) + uint64(dstM.Now()-d0)
		row.Mode = "stop&copy"
		row.PagesMoved = frames
		row.DowntimeCyc = down
		row.TotalCyc = down // the whole copy is blackout
	} else {
		// The guest's concurrent activity: rate page writes per round,
		// drawn from a stream seeded by the cell's own parameters.
		rng := simrand.New(0xE11 ^ uint64(rate)<<20 ^ uint64(budget)<<8)
		var workErr error
		work := func(round int) {
			for i := 0; i < rate; i++ {
				gpn := int(rng.Uint64n(uint64(frames)))
				if err := srcH.GuestMemWrite(dom.ID, gpn, 1, []byte{byte(round)}); err != nil && workErr == nil {
					workErr = fmt.Errorf("E11 guest write: %w", err)
				}
			}
		}
		var stats *vmm.LiveStats
		moved, stats, err = vmm.MigrateLive(srcH, dom.ID, dstH, vmm.LiveOpts{
			MaxRounds: budget,
			WSSCutoff: e11WSSCutoff,
			GuestWork: work,
		})
		if err != nil {
			return E11Row{}, err
		}
		if workErr != nil {
			return E11Row{}, workErr
		}
		row.Mode = "pre-copy"
		row.Rounds = stats.Rounds
		row.PagesMoved = stats.PagesMoved
		row.DowntimeCyc = uint64(stats.Downtime)
		row.TotalCyc = uint64(stats.Total)
	}
	var got [len(marker)]byte
	dstM.Mem.Read(moved.FrameAt(frames-1), 16, got[:])
	if string(got[:]) != marker {
		return E11Row{}, fmt.Errorf("E11 rate=%d budget=%d: memory corrupted in flight: %q", rate, budget, got[:])
	}
	if err := dstH.Unpause(moved.ID); err != nil {
		return E11Row{}, err
	}
	if err := dstH.Hypercall(moved.ID, "probe", 10); err != nil {
		return E11Row{}, fmt.Errorf("E11 rate=%d budget=%d: migrated guest dead: %w", rate, budget, err)
	}
	return row, nil
}

// e11Table builds the registry table.
func e11Table(rows []E11Row) *ResultTable {
	t := NewResultTable(
		"E11 — live pre-copy migration: downtime vs pages moved (paper §3.3)",
		Col("dirty/rnd", "pages/round"), Col("budget", "rounds"), Col("mode", ""),
		Col("rounds", "rounds"), Col("pages moved", "pages"),
		Col("downtime cyc", "cycles"), Col("total cyc", "cycles"),
	)
	for _, r := range rows {
		t.AddRow(r.DirtyRate, r.Budget, r.Mode, r.Rounds, r.PagesMoved, r.DowntimeCyc, r.TotalCyc)
	}
	return t
}
