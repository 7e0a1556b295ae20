package hw

import "vmmk/internal/trace"

// Cache models the indirect cost of protection-domain switching that the
// paper's minimality argument (§2.2) is really about: every domain has a
// cache footprint, the cache has finite capacity, and re-entering a domain
// whose lines were evicted costs a refill. The direct switch cost (CR3
// write, TLB flush) is charged by the CPU; this adds the part that made
// small kernels fast in practice — a small kernel's lines stay resident.
//
// The model is occupancy-based: each address space declares a footprint in
// lines; running a space brings its footprint resident, evicting other
// spaces' lines round-robin when capacity is exceeded. Re-entry charges
// per-line refill for whatever was lost. It is deliberately coarse — the
// experiments need the thrash-vs-fit distinction, not set indices.
type Cache struct {
	capacity  int // total lines
	refill    Cycles
	footprint map[uint16]int // asid -> declared working set
	resident  map[uint16]int // asid -> lines currently resident
	order     []uint16       // eviction rotation
}

// NewCache returns a cache with the given capacity in lines and per-line
// refill cost.
func NewCache(capacityLines int, refillPerLine Cycles) *Cache {
	if capacityLines <= 0 {
		panic("hw: cache capacity must be positive")
	}
	return &Cache{
		capacity:  capacityLines,
		refill:    refillPerLine,
		footprint: make(map[uint16]int),
		resident:  make(map[uint16]int),
	}
}

// SetFootprint declares an address space's working set in lines. Footprints
// larger than the cache are clamped.
func (c *Cache) SetFootprint(asid uint16, lines int) {
	if lines < 0 {
		lines = 0
	}
	if lines > c.capacity {
		lines = c.capacity
	}
	if _, ok := c.footprint[asid]; !ok {
		c.order = append(c.order, asid)
	}
	c.footprint[asid] = lines
}

// total returns the lines currently resident across all spaces.
func (c *Cache) total() int {
	t := 0
	for _, n := range c.resident {
		t += n
	}
	return t
}

// Run makes asid the running space: its footprint becomes resident,
// evicting other spaces round-robin as needed. It returns the number of
// lines refilled (0 when the space was still fully resident — the hot
// case small kernels live in).
func (c *Cache) Run(asid uint16) int {
	want, ok := c.footprint[asid]
	if !ok || want == 0 {
		return 0
	}
	missing := want - c.resident[asid]
	if missing <= 0 {
		return 0
	}
	// Evict from other spaces until the refill fits.
	need := c.total() + missing - c.capacity
	for need > 0 {
		evicted := false
		for _, victim := range c.order {
			if victim == asid || c.resident[victim] == 0 {
				continue
			}
			take := c.resident[victim]
			if take > need {
				take = need
			}
			c.resident[victim] -= take
			need -= take
			evicted = true
			if need == 0 {
				break
			}
		}
		if !evicted {
			break // only this space is resident; capacity clamp holds
		}
	}
	c.resident[asid] = want
	return missing
}

// RefillCost converts a line count to cycles.
func (c *Cache) RefillCost(lines int) Cycles { return Cycles(lines) * c.refill }

// Resident returns the lines currently resident for asid.
func (c *Cache) Resident(asid uint16) int { return c.resident[asid] }

// AttachCache enables cache-footprint modelling on the CPU. Subsequent
// SwitchSpace calls charge refill costs for the incoming space.
func (c *CPU) AttachCache(cache *Cache) { c.cache = cache }

// CacheRun charges the refill cost of making asid hot; SwitchSpace calls it
// automatically when a cache is attached, and kernels may call it for
// same-space handoffs that still displace cache state (e.g. a large server
// running within a shared space).
func (c *CPU) CacheRun(component trace.Comp, asid uint16) {
	if c.cache == nil {
		return
	}
	lines := c.cache.Run(asid)
	if lines > 0 {
		c.Work(component, c.cache.RefillCost(lines))
	}
}
