package hw

import (
	"testing"
	"testing/quick"
)

func TestCacheColdRefill(t *testing.T) {
	c := NewCache(256, 10)
	c.SetFootprint(1, 100)
	if got := c.Run(1); got != 100 {
		t.Fatalf("cold run refilled %d lines, want 100", got)
	}
	if got := c.Run(1); got != 0 {
		t.Fatalf("hot run refilled %d lines, want 0", got)
	}
	if c.Resident(1) != 100 {
		t.Fatalf("resident = %d", c.Resident(1))
	}
}

func TestCacheTwoSpacesFit(t *testing.T) {
	// Small footprints coexist: after warmup, ping-pong is free. This is
	// the small-kernel case.
	c := NewCache(256, 10)
	c.SetFootprint(1, 100)
	c.SetFootprint(2, 100)
	c.Run(1)
	c.Run(2)
	if c.Run(1) != 0 || c.Run(2) != 0 {
		t.Fatal("fitting working sets must not thrash")
	}
}

func TestCacheThrash(t *testing.T) {
	// Large footprints evict each other: every switch refills. This is
	// what a fat kernel (or super-VM) does to its guests.
	c := NewCache(256, 10)
	c.SetFootprint(1, 200)
	c.SetFootprint(2, 200)
	c.Run(1)
	if got := c.Run(2); got != 200 {
		t.Fatalf("refill = %d, want 200", got)
	}
	if got := c.Run(1); got == 0 {
		t.Fatal("thrashing pair ran hot — eviction missing")
	}
}

func TestCacheCapacityInvariant(t *testing.T) {
	c := NewCache(100, 1)
	c.SetFootprint(1, 60)
	c.SetFootprint(2, 60)
	c.SetFootprint(3, 60)
	for i := 0; i < 10; i++ {
		c.Run(uint16(i%3 + 1))
		if c.total() > 100 {
			t.Fatalf("resident %d exceeds capacity", c.total())
		}
	}
}

func TestCacheFootprintClamped(t *testing.T) {
	c := NewCache(100, 1)
	c.SetFootprint(1, 500)
	if got := c.Run(1); got != 100 {
		t.Fatalf("oversized footprint refilled %d, want clamp to 100", got)
	}
}

func TestCPUCacheIntegration(t *testing.T) {
	m := NewMachine(X86(), &MachineConfig{Frames: 16})
	cache := NewCache(256, 10)
	cache.SetFootprint(1, 200)
	cache.SetFootprint(2, 200)
	m.CPU.AttachCache(cache)
	pt1, pt2 := NewPageTable(1), NewPageTable(2)

	m.CPU.SwitchSpace(m.Rec.Intern("k"), &pt1) // cold: 200 lines
	t0 := m.Now()
	m.CPU.SwitchSpace(m.Rec.Intern("k"), &pt2) // evicts 1, fills 2
	withCache := m.Now() - t0

	// Same switch without a cache attached.
	m2 := NewMachine(X86(), &MachineConfig{Frames: 16})
	q1, q2 := NewPageTable(1), NewPageTable(2)
	m2.CPU.SwitchSpace(m2.Rec.Intern("k"), &q1)
	t1 := m2.Now()
	m2.CPU.SwitchSpace(m2.Rec.Intern("k"), &q2)
	without := m2.Now() - t1

	if withCache <= without {
		t.Fatalf("cache model added no cost: %d vs %d", withCache, without)
	}
	if withCache-without != 200*10 {
		t.Fatalf("refill charge = %d, want 2000", withCache-without)
	}
}

func TestQuickCacheNeverExceedsCapacity(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) == 0 {
			return true
		}
		c := NewCache(64, 1)
		for i := 0; i < 8; i++ {
			c.SetFootprint(uint16(i), int(ops[i%len(ops)])%80)
		}
		for _, op := range ops {
			c.Run(uint16(op % 8))
			if c.total() > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
