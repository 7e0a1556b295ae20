package cluster

import (
	"reflect"
	"testing"

	"vmmk/internal/hw"
)

// churnRun drives one cluster through a fixed churn, auditing every host
// after each event, and returns its placement log, stats and final
// per-host clocks.
func churnRun(t *testing.T, fleet int, p Policy, seed uint64, src MachineSource) ([]string, Stats, []hw.Cycles) {
	t.Helper()
	c, err := New(Config{Hosts: fleet, Policy: p}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	churnAudited(t, c, 48, seed)
	clocks := make([]hw.Cycles, 0, fleet)
	for _, h := range c.Hosts() {
		clocks = append(clocks, h.Machine().Now())
	}
	return c.Log(), c.Stats(), clocks
}

// TestPlacementReproducible is the property the whole package is built
// around: every placement decision — and therefore the log, the stats and
// each host's cycle count — is a pure function of (seed, policy, fleet).
func TestPlacementReproducible(t *testing.T) {
	for _, p := range Policies {
		for _, fleet := range []int{2, 3, 5} {
			for seed := uint64(1); seed <= 5; seed++ {
				log1, stats1, clocks1 := churnRun(t, fleet, p, seed, nil)
				log2, stats2, clocks2 := churnRun(t, fleet, p, seed, nil)
				if !reflect.DeepEqual(log1, log2) {
					t.Fatalf("%s fleet=%d seed=%d: placement logs differ\n%v\nvs\n%v", p, fleet, seed, log1, log2)
				}
				if !reflect.DeepEqual(stats1, stats2) {
					t.Fatalf("%s fleet=%d seed=%d: stats differ: %+v vs %+v", p, fleet, seed, stats1, stats2)
				}
				if !reflect.DeepEqual(clocks1, clocks2) {
					t.Fatalf("%s fleet=%d seed=%d: host clocks differ: %v vs %v", p, fleet, seed, clocks1, clocks2)
				}
			}
		}
	}
}

// TestSeedsDiverge guards the property test against vacuity: different
// seeds must actually produce different runs.
func TestSeedsDiverge(t *testing.T) {
	log1, _, _ := churnRun(t, 2, BinPack, 1, nil)
	log2, _, _ := churnRun(t, 2, BinPack, 2, nil)
	if reflect.DeepEqual(log1, log2) {
		t.Fatal("seeds 1 and 2 produced identical placement logs")
	}
}

// TestPooledVsFreshHosts pins host-pooling equivalence at fleet level: a
// cluster booted on recycled (Reset) machines must behave cycle-for-cycle
// like one booted on fresh machines. This is the cluster-shaped version of
// the engine-wide pooled-vs-fresh differential in internal/core.
func TestPooledVsFreshHosts(t *testing.T) {
	pool := hw.NewMachinePool()
	pooled := func(cfg *hw.MachineConfig) (*hw.Machine, func()) {
		m := pool.Get(hw.X86(), cfg)
		return m, func() { pool.Put(m) }
	}
	for _, p := range Policies {
		freshLog, freshStats, freshClocks := churnRun(t, 3, p, 42, nil)
		// First pooled run warms the pool; the second runs wholly on
		// machines Reset from the first.
		churnRun(t, 3, p, 42, pooled)
		hits0, _ := pool.Stats()
		log, stats, clocks := churnRun(t, 3, p, 42, pooled)
		if hits, _ := pool.Stats(); hits-hits0 == 0 {
			t.Fatalf("%s: second pooled run hit the pool 0 times", p)
		}
		if !reflect.DeepEqual(freshLog, log) {
			t.Fatalf("%s: pooled placement log diverged from fresh\n%v\nvs\n%v", p, freshLog, log)
		}
		if !reflect.DeepEqual(freshStats, stats) {
			t.Fatalf("%s: pooled stats diverged: %+v vs %+v", p, freshStats, stats)
		}
		if !reflect.DeepEqual(freshClocks, clocks) {
			t.Fatalf("%s: pooled host clocks diverged: %v vs %v", p, freshClocks, clocks)
		}
	}
}
