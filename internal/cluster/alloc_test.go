package cluster

import (
	"runtime"
	"testing"
)

// TestChurnAllocatesPerEvent holds a warm 16-host churn to what its
// events allocate: 1,024 events on fleets that have already run 1,024,
// under each policy, averaged over both. An event's allocations are the
// guest it places (its Guest, its domain, its trace component and its
// frames' first use), the live migrations a departure's rebalance runs
// (the shell domain and the source's dirty log at one byte a page), and
// the placement log's 16-byte records and its name table: 497 bytes and
// 4.41 objects. The byte bound leaves room for the runtime's own
// allocations, which add up to 7 bytes an event to some runs.
func TestChurnAllocatesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector splits some allocations in two")
	}
	const warm, events = 1024, 1024
	const maxBytes, maxObjects = 540, 4.5
	var bytes, objects uint64
	for _, p := range Policies {
		c, err := New(Config{Hosts: 16, HostFrames: 192, Policy: p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ch := c.newChurn(1)
		for i := 0; i < warm; i++ {
			if err := ch.event(i); err != nil {
				t.Fatal(err)
			}
		}
		procs := runtime.GOMAXPROCS(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := warm; i < warm+events; i++ {
			if err := ch.event(i); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		bytes += after.TotalAlloc - before.TotalAlloc
		objects += after.Mallocs - before.Mallocs
		c.Close()
	}
	n := float64(events * len(Policies))
	perByte, perObject := float64(bytes)/n, float64(objects)/n
	t.Logf("a warm churn event allocates %.1f bytes and %.3f objects", perByte, perObject)
	if perByte > maxBytes || perObject > maxObjects {
		t.Fatalf("a warm churn event allocates %.1f bytes and %.3f objects, want at most %d and %v",
			perByte, perObject, maxBytes, maxObjects)
	}
}
