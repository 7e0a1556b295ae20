package core

import (
	"fmt"

	"vmmk/internal/cluster"
	"vmmk/internal/hw"
)

// E13 lifts the simulator to fleet scale — the level where the paper's
// closing argument (VMMs won because they manage whole systems) actually
// bites. Each cell boots a fleet of hosts under one placement control
// plane (internal/cluster) and drives it through a seeded churn of guest
// arrivals and departures: admission under 150% memory overcommit realized
// by balloon squeezing, plus policy-driven live migrations over a costed
// network link — consolidation sweeps for bin-packing, leveling moves for
// spread. The table reports how consolidated the fleet ends up, what the
// migrations cost in guest-observable downtime (p99), and how often the
// fleet broke service (rejections + downtime SLO misses).

// e13SLO is the downtime service-level objective: migrations whose
// blackout exceeds it count as violations.
const e13SLO hw.Cycles = 10000

// e13Spec is E13's entry in the experiment table.
var e13Spec = Spec{
	ID:    "e13",
	Title: "fleet placement, overcommit and cross-host migration",
	Params: []Param{{
		Name: "fleet", Kind: ParamIntList, DefaultList: []int{2, 4, 8}, Max: 64,
		Unit: "hosts", Help: "comma-separated fleet sizes for the E13 cluster sweep",
	}, {
		Name: "churn", Kind: ParamIntList, DefaultList: []int{24, 96}, Max: 1 << 16,
		Unit: "events", Help: "comma-separated churn event counts for E13",
	}, {
		Name: "hostframes", Kind: ParamInt, DefaultInt: 192, Max: 1 << 20,
		Unit: "pages", Help: "physical memory pages per E13 host",
	}},
	Run: func(r *Runner, p Params) (*Result, error) {
		rows, err := r.e13(p.IntList("fleet"), p.IntList("churn"), p.Int("hostframes"))
		if err != nil {
			return nil, err
		}
		return NewResult(e13Table(rows)), nil
	},
}

// E13Row is one fleet cell's measurement.
type E13Row struct {
	Fleet      int     // hosts in the fleet
	Churn      int     // churn events driven
	Policy     string  // placement policy
	Placed     int     // admissions granted
	Rejected   int     // admissions rejected
	Migrations int     // live migrations completed
	ConsolPct  float64 // committed pages / in-use host capacity, percent
	P99Cyc     uint64  // p99 migration downtime, cycles
	SLOViol    int     // rejections + downtime SLO misses
}

// e13 fans one cell out per (fleet size, churn count, policy) triple, with
// hostFrames pages on every host. Every cell boots its own fleet from the
// worker's machine pool and seeds its own churn stream from the cell
// parameters, so the table is byte-identical at any -parallel width.
func (r *Runner) e13(fleets, churns []int, hostFrames int) ([]E13Row, error) {
	type cellCfg struct {
		fleet, churn int
		policy       cluster.Policy
	}
	var cells []cellCfg
	for _, fleet := range fleets {
		for _, churn := range churns {
			for _, pol := range cluster.Policies {
				cells = append(cells, cellCfg{fleet, churn, pol})
			}
		}
	}
	return RunCells(r, len(cells), func(pool *hw.MachinePool, i int) (E13Row, error) {
		c := cells[i]
		return e13Cell(pool, c.fleet, c.churn, hostFrames, c.policy)
	})
}

// e13Cell boots one fleet, runs its churn, and reads the meters.
func e13Cell(pool *hw.MachinePool, fleet, churn, hostFrames int, pol cluster.Policy) (E13Row, error) {
	src := func(mc *hw.MachineConfig) (*hw.Machine, func()) {
		m := pool.Get(x86, mc)
		return m, func() { pool.Put(m) }
	}
	cl, err := cluster.New(cluster.Config{
		Hosts:      fleet,
		HostFrames: hostFrames,
		Policy:     pol,
	}, src)
	if err != nil {
		return E13Row{}, err
	}
	defer cl.Close()
	seed := 0xE13 ^ uint64(fleet)<<32 ^ uint64(churn)<<12 ^ uint64(pol)
	if err := cl.RunChurn(churn, seed); err != nil {
		return E13Row{}, fmt.Errorf("E13 fleet=%d churn=%d %s: %w", fleet, churn, pol, err)
	}
	s := cl.Stats()
	return E13Row{
		Fleet:      fleet,
		Churn:      churn,
		Policy:     pol.String(),
		Placed:     s.Placed,
		Rejected:   s.Rejected,
		Migrations: s.Migrations,
		ConsolPct:  cl.ConsolidationPct(),
		P99Cyc:     uint64(s.DowntimeP99()),
		SLOViol:    s.SLOViolations(e13SLO),
	}, nil
}

// e13Table builds the registry table.
func e13Table(rows []E13Row) *ResultTable {
	t := NewResultTable(
		"E13 — fleet placement and migration under churn (paper §4)",
		Col("fleet", "hosts"), Col("churn", "events"), Col("policy", ""),
		Col("placed", "domains"), Col("rejected", "domains"),
		Col("migrations", "count"), Col("consol", "%"),
		Col("downtime p99", "cycles"), Col("slo viol", "count"),
	)
	for _, r := range rows {
		t.AddRow(r.Fleet, r.Churn, r.Policy, r.Placed, r.Rejected,
			r.Migrations, fmt.Sprintf("%.1f", r.ConsolPct), r.P99Cyc, r.SLOViol)
	}
	return t
}
