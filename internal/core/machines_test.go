package core

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"vmmk/internal/hw"
)

// TestExperimentsPooledVsFresh is the engine's no-cycle-leakage guarantee:
// every experiment must render byte-identical tables whether its cells run
// on freshly booted machines or on pooled machines Reset from earlier work.
//
// The baseline runs each experiment on a nil *Runner, which carries no
// machine pool: every machine a cell asks for is a fresh boot. The probe
// runs the whole registry twice on one persistent serial Runner: the first
// sweep in registry order already reuses machines its earlier cells
// released, and the second runs in reverse order, so each experiment's
// machines come from other predecessors than in the first, re-targeted from
// other architectures, frame counts, CPU counts and log capacities. Any
// state Reset or the re-target failed to clear or set — a leftover cycle, a
// dirty page or queued event, a stale frame count, CPU count or
// architecture — shows up as a table diff. No table reads the architecture
// of a CPU no cell charged, or the page size, so every machine a probe cell
// releases must also match its own Arch in those (matchesArch). It must pass
// the frame allocator's conservation audit, before its Reset and after it,
// and every experiment must put back as many machines as it took.
func TestExperimentsPooledVsFresh(t *testing.T) {
	var fresh *Runner
	baseline := map[string]string{}
	for _, s := range Specs() {
		res, err := fresh.RunExperiment(context.Background(), s.ID, nil)
		if err != nil {
			t.Fatalf("%s (fresh): %v", s.ID, err)
		}
		baseline[s.ID] = res.Text()
	}

	r := NewRunner(1)
	var cell, id string
	puts := 0
	// ledgers[id][i] lists, machine by machine, the components experiment
	// id's released machines charged in sweep i+1, in the order each first
	// charged them.
	ledgers := map[string]*[2][][]string{}
	sweep := 1
	pool := hw.NewMachinePool()
	pool.Inspect(func(m *hw.Machine) {
		puts++
		l := ledgers[id]
		l[sweep-1] = append(l[sweep-1], m.Rec.Components())
		if err := m.Mem.Audit(); err != nil {
			t.Errorf("%s: released machine fails the frame audit: %v", cell, err)
		}
		if err := matchesArch(m); err != nil {
			t.Errorf("%s: released %s machine: %v", cell, m.Arch.Name, err)
		}
		m.Mem.Reset()
		if err := m.Mem.Audit(); err != nil {
			t.Errorf("%s: reset memory fails the frame audit: %v", cell, err)
		}
	})
	r.pools = []*hw.MachinePool{pool}
	specs := Specs()
	for ; sweep <= 2; sweep++ {
		if sweep == 2 {
			slices.Reverse(specs)
		}
		for _, s := range specs {
			id, cell = s.ID, fmt.Sprintf("%s (sweep %d)", s.ID, sweep)
			if ledgers[id] == nil {
				ledgers[id] = new([2][][]string)
			}
			hits0, misses0 := pool.Stats()
			puts0 := puts
			res, err := r.RunExperiment(context.Background(), s.ID, nil)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			hits, misses := pool.Stats()
			if gets := hits - hits0 + misses - misses0; uint64(puts-puts0) != gets {
				t.Errorf("%s: took %d machines from the pool and put back %d", cell, gets, puts-puts0)
			}
			if got := res.Text(); got != baseline[s.ID] {
				t.Errorf("%s: sweep %d on pooled machines diverged from fresh machines\nfresh:\n%s\npooled:\n%s",
					s.ID, sweep, baseline[s.ID], got)
			}
		}
	}

	// The probe must actually have exercised the pool: the serial runner
	// keeps one pool, and its Gets should have hit it.
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if len(r.pools) != 1 {
		t.Fatalf("serial runner holds %d pools, want 1", len(r.pools))
	}
	if hits, _ := r.pools[0].Stats(); hits == 0 {
		t.Error("two sweeps never reused a pooled machine — the differential test tested nothing")
	}
	if puts == 0 {
		t.Error("no released machine was audited")
	}
	// No table prints the order components first paid in, so the sweeps
	// compare it directly, experiment by experiment: map-order charging,
	// or a charge that depends on which machine a cell was handed, would
	// show here.
	for _, s := range specs {
		if l := ledgers[s.ID]; !reflect.DeepEqual(l[0], l[1]) {
			t.Errorf("%s: the two sweeps' released machines charged their components in different orders (%d and %d machines)",
				s.ID, len(l[0]), len(l[1]))
		}
	}
	t.Logf("audited %d released machines (%d per sweep)", puts, puts/2)
}

// matchesArch checks what a machine's Arch sets that a table may not read:
// every CPU's architecture, and the memory's page size.
func matchesArch(m *hw.Machine) error {
	for i, c := range m.CPUs {
		if c.Arch != m.Arch {
			return fmt.Errorf("cpu%d runs arch %s, its machine %s", i, c.Arch.Name, m.Arch.Name)
		}
	}
	if got, want := m.Mem.PageSize(), m.Arch.PageSize(); got != want {
		return fmt.Errorf("memory has %d-byte pages, want %d", got, want)
	}
	return nil
}

// TestRunAllAllocatesEightMachines is the allocation gate of machine
// pooling: a cold serial RunAll, one `vmmklab all`, boots 8 machines (E1
// 1, E11 1, E13 6), because a pooled machine serves any later Get,
// re-targeted to the architecture, frame count, CPU count and log capacity
// asked for. E13's 8-host fleet, which holds 8 machines at once, sets that
// floor. Every other machine a cell takes is a pooled one.
func TestRunAllAllocatesEightMachines(t *testing.T) {
	r := NewRunner(1)
	if err := r.RunAll(io.Discard); err != nil {
		t.Fatal(err)
	}
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if len(r.pools) != 1 {
		t.Fatalf("serial runner holds %d pools, want 1", len(r.pools))
	}
	if hits, misses := r.pools[0].Stats(); misses != 8 {
		t.Errorf("a cold serial RunAll booted %d machines and reused %d, want 8 boots", misses, hits)
	}
}
