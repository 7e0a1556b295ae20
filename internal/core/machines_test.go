package core

import (
	"context"
	"fmt"
	"reflect"
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
// sweep already reuses machines its earlier cells released, and by the
// second sweep every pool-keyed machine a cell asks for is a recycled one.
// Any state Reset failed to clear — a leftover cycle, a dirty page, a stale
// TLB entry or queued event — shows up as a table diff. Every machine a
// probe cell releases must also pass the frame allocator's conservation
// audit, before its Reset and after it, and every experiment must put back
// as many machines as it took.
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
	var cell string
	puts := 0
	// ledgers[i] lists, machine by machine, the components sweep i+1's
	// released machines charged, in the order each first charged them.
	var ledgers [2][][]string
	sweep := 1
	pool := hw.NewMachinePool()
	pool.Inspect(func(m *hw.Machine) {
		puts++
		ledgers[sweep-1] = append(ledgers[sweep-1], m.Rec.Components())
		if err := m.Mem.Audit(); err != nil {
			t.Errorf("%s: released machine fails the frame audit: %v", cell, err)
		}
		m.Mem.Reset()
		if err := m.Mem.Audit(); err != nil {
			t.Errorf("%s: reset memory fails the frame audit: %v", cell, err)
		}
	})
	r.pools = []*hw.MachinePool{pool}
	for ; sweep <= 2; sweep++ {
		for _, s := range Specs() {
			cell = fmt.Sprintf("%s (sweep %d)", s.ID, sweep)
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
	// compare it directly: map-order charging would show here.
	if !reflect.DeepEqual(ledgers[0], ledgers[1]) {
		t.Errorf("the two sweeps' released machines charged their components in different orders (%d and %d machines)",
			len(ledgers[0]), len(ledgers[1]))
	}
	t.Logf("audited %d released machines (%d per sweep)", puts, len(ledgers[0]))
}
