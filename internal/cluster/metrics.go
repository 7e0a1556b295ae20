package cluster

import (
	"sort"

	"vmmk/internal/hw"
)

// Stats accumulates what the control plane did over a cluster's lifetime.
type Stats struct {
	// Placed and Rejected count admission outcomes; Removed counts
	// departures.
	Placed, Rejected, Removed int
	// Migrations counts completed live migrations; Aborted counts
	// migrations that failed cleanly (dead link, dying source).
	Migrations, Aborted int
	// Squeezed counts pages ballooned out of placed guests to make
	// physical room under overcommit.
	Squeezed int
	// Downtimes holds each completed migration's guest-observable
	// blackout, in completion order.
	Downtimes []hw.Cycles
}

// Stats returns a copy of the cluster's accumulated statistics.
func (c *Cluster) Stats() Stats {
	s := c.stats
	s.Downtimes = append([]hw.Cycles(nil), c.stats.Downtimes...)
	return s
}

// DowntimeP99 returns the nearest-rank 99th-percentile migration downtime,
// or 0 when no migration has completed.
func (s Stats) DowntimeP99() hw.Cycles {
	if len(s.Downtimes) == 0 {
		return 0
	}
	sorted := append([]hw.Cycles(nil), s.Downtimes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (99*len(sorted) + 99) / 100 // ceil(0.99 n), nearest-rank
	return sorted[rank-1]
}

// SLOViolations counts service-level violations: admission rejections plus
// migrations whose downtime exceeded slo.
func (s Stats) SLOViolations(slo hw.Cycles) int {
	n := s.Rejected
	for _, d := range s.Downtimes {
		if d > slo {
			n++
		}
	}
	return n
}

// CommittedPages returns the fleet-wide sum of placed guests' nominal
// sizes.
func (c *Cluster) CommittedPages() int {
	total := 0
	for _, h := range c.hosts {
		total += h.committed
	}
	return total
}

// ConsolidationPct returns how full the in-use hosts are: committed pages
// as a percentage of the in-use hosts' combined capacity (0 with no
// guests). Overcommit can push it past 100; bin-packing drives it up by
// emptying hosts, spreading drives it down by keeping every host warm.
func (c *Cluster) ConsolidationPct() float64 {
	capacity := 0
	for _, h := range c.hosts {
		if len(h.guests) > 0 {
			capacity += h.cap
		}
	}
	if capacity == 0 {
		return 0
	}
	return 100 * float64(c.CommittedPages()) / float64(capacity)
}
