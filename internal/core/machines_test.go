package core

import (
	"bytes"
	"fmt"
	"testing"

	"vmmk/internal/hw"
)

// TestExperimentsPooledVsFresh is the engine's no-cycle-leakage guarantee:
// every experiment must render byte-identical tables whether its cells run
// on freshly booted machines or on pooled machines Reset from earlier work.
//
// The baseline binds each experiment to its own brand-new Runner (empty
// pools — every machine is a fresh boot). The probe runs the whole registry
// twice on one persistent Runner: the first sweep warms its pools, so by
// the second sweep every pool-keyed machine a cell asks for is a recycled
// one. Any state Reset failed to clear — a leftover cycle, a dirty page, a
// stale TLB entry or queued event — shows up as a table diff. Every machine
// a probe cell releases must also pass the frame allocator's conservation
// audit, before its Reset and after it.
func TestExperimentsPooledVsFresh(t *testing.T) {
	fresh := map[string]string{}
	for _, e := range SerialRunner().Experiments() {
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			t.Fatalf("%s (fresh): %v", e.ID, err)
		}
		fresh[e.ID] = buf.String()
	}

	r := SerialRunner()
	var cell string
	audited := 0
	pool := hw.NewMachinePool()
	pool.Inspect(func(m *hw.Machine) {
		audited++
		if err := m.Mem.Audit(); err != nil {
			t.Errorf("%s: released machine fails the frame audit: %v", cell, err)
		}
		m.Mem.Reset()
		if err := m.Mem.Audit(); err != nil {
			t.Errorf("%s: reset memory fails the frame audit: %v", cell, err)
		}
	})
	r.pools = []*hw.MachinePool{pool}
	for sweep := 1; sweep <= 2; sweep++ {
		for _, e := range r.Experiments() {
			cell = fmt.Sprintf("%s (sweep %d)", e.ID, sweep)
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s (sweep %d): %v", e.ID, sweep, err)
			}
			if got := buf.String(); got != fresh[e.ID] {
				t.Errorf("%s: sweep %d on pooled machines diverged from fresh machines\nfresh:\n%s\npooled:\n%s",
					e.ID, sweep, fresh[e.ID], got)
			}
		}
	}

	// The probe must actually have exercised the pool: the serial runner
	// keeps one pool, and the second sweep's Gets should have hit it.
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if len(r.pools) != 1 {
		t.Fatalf("serial runner holds %d pools, want 1", len(r.pools))
	}
	if hits, _ := r.pools[0].Stats(); hits == 0 {
		t.Error("two sweeps never reused a pooled machine — the differential test tested nothing")
	}
	if audited == 0 {
		t.Error("no released machine was audited")
	}
	t.Logf("audited %d released machines", audited)
}
