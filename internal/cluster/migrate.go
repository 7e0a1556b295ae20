package cluster

import (
	"errors"
	"fmt"

	"vmmk/internal/vmm"
)

// MigrateGuest live-migrates a placed guest to the host with fleet index
// dst over the cluster's link. On success the guest runs on dst (unpaused)
// and the source host's remaining guests reflate; an aborted migration
// (vmm.ErrMigrationAborted, e.g. the link went down) leaves both hosts
// clean — the source guest keeps running, the destination keeps nothing.
func (c *Cluster) MigrateGuest(name string, dst int) (*vmm.LiveStats, error) {
	g, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGuest, name)
	}
	if dst < 0 || dst >= len(c.hosts) {
		return nil, fmt.Errorf("%w: %d (fleet of %d)", ErrBadHost, dst, len(c.hosts))
	}
	if c.hosts[dst] == g.host {
		return nil, fmt.Errorf("%w: %q already runs on host%d", ErrBadHost, name, dst)
	}
	return c.migrate(g, c.hosts[dst], nil)
}

// workFactory builds the guest-activity hook for one migration — churn
// uses it to keep the guest dirtying pages while its memory crosses.
type workFactory func(g *Guest) func(round int)

// migrate performs one admission-checked live migration.
func (c *Cluster) migrate(g *Guest, dst *Host, guestWork func(round int)) (*vmm.LiveStats, error) {
	src := g.host
	if !c.admits(dst, g.Nominal) {
		return nil, fmt.Errorf("%w: host%d cannot admit %q", ErrNoHostFits, dst.index, g.Name)
	}
	// The destination must physically hold the guest's resident set; under
	// overcommit that may mean squeezing the guests already there.
	resident := g.Resident()
	if free := dst.m.Mem.FreeFrames(); free < resident {
		if free+c.reclaimable(dst) < resident {
			return nil, fmt.Errorf("%w: host%d lacks %d frames for %q", ErrNoHostFits, dst.index, resident-free, g.Name)
		}
		if err := c.squeeze(dst, resident-free); err != nil {
			return nil, err
		}
	}
	shell, stats, err := vmm.MigrateLive(src.hv, g.dom, dst.hv, vmm.LiveOpts{
		MaxRounds: maxRounds,
		WSSCutoff: 2,
		GuestWork: guestWork,
		Transport: c.link.Transport(src.m, dst.m),
	})
	if err != nil {
		// MigrateLive unwound both ends (shell destroyed, dirty log off,
		// source resumed); hand any frames the squeeze freed on the
		// destination back to its guests and report the abort.
		c.stats.Aborted++
		c.note(logAbort, g.name, 0, src.index, dst.index)
		if rerr := c.reflate(dst); rerr != nil {
			return nil, rerr
		}
		return nil, err
	}
	src.committed -= g.Nominal
	for i, sg := range src.guests {
		if sg == g {
			src.guests = append(src.guests[:i], src.guests[i+1:]...)
			break
		}
	}
	g.dom, g.host = shell.ID, dst
	dst.guests = append(dst.guests, g)
	dst.committed += g.Nominal
	if err := dst.hv.Unpause(shell.ID); err != nil {
		return nil, fmt.Errorf("cluster: resume %q on host%d: %w", g.Name, dst.index, err)
	}
	c.stats.Migrations++
	c.stats.Downtimes = append(c.stats.Downtimes, stats.Downtime)
	c.note(logMigrate, g.name, 0, src.index, dst.index)
	if err := c.reflate(src); err != nil {
		return nil, err
	}
	return stats, nil
}

// Rebalance runs one policy-driven migration pass: under BinPack it tries
// to evacuate lightly loaded hosts onto the rest of the fleet (shrinking
// the set of hosts in use); under Spread it moves one guest from the most-
// to the least-committed host when that strictly narrows the gap. It
// returns how many migrations ran. Physical shortfall mid-pass stops the
// pass cleanly rather than failing it.
func (c *Cluster) Rebalance() (int, error) { return c.rebalance(nil) }

// rebalance dispatches on policy, threading the churn dirtier through.
func (c *Cluster) rebalance(work workFactory) (int, error) {
	if c.cfg.Policy == Spread {
		return c.level(work)
	}
	return c.consolidate(work)
}

// consolidate evacuates one lightly loaded host per pass: if the least-
// committed host under half utilization can have all its guests admitted
// elsewhere, migrate them off, emptying it. One evacuation per pass keeps
// the migration rate proportional to churn instead of thrashing the fleet.
func (c *Cluster) consolidate(work workFactory) (int, error) {
	src := c.evacuationTarget()
	if src == nil {
		return 0, nil
	}
	plan, ok := c.evacuationPlan(src)
	if !ok {
		return 0, nil
	}
	moved := 0
	// Snapshot the source's guest list: migrate mutates it.
	c.snap = append(c.snap[:0], src.guests...)
	for i, g := range c.snap {
		var hook func(int)
		if work != nil {
			hook = work(g)
		}
		if _, err := c.migrate(g, c.hosts[plan[i]], hook); err != nil {
			if errors.Is(err, ErrNoHostFits) {
				// The plan was admission-feasible but physical frames ran
				// out (residency floors); stop consolidating this round.
				c.note(logConsolidate, g.name, 0, src.index, 0)
				return moved, nil
			}
			return moved, err
		}
		moved++
	}
	return moved, nil
}

// evacuationTarget picks the host to empty: the least-committed host that
// still has guests and sits under half utilization (an evacuation must be
// worth its migrations), ties to the higher index (pack downward into the
// low indexes). With fewer than two non-empty hosts there is nothing to
// consolidate.
func (c *Cluster) evacuationTarget() *Host {
	var target *Host
	nonEmpty := 0
	for _, h := range c.hosts {
		if len(h.guests) == 0 {
			continue
		}
		nonEmpty++
		if 2*h.committed >= h.cap {
			continue
		}
		if target == nil || h.committed <= target.committed {
			target = h
		}
	}
	if nonEmpty < 2 {
		return nil
	}
	return target
}

// evacuationPlan simulates admitting every guest of src elsewhere, in
// placement order, and returns the destination index per guest. It reports
// false when any guest has no admissible destination — the evacuation is
// all-or-nothing at admission level. The plan reuses the cluster's scratch
// slice: it is valid until the next call.
func (c *Cluster) evacuationPlan(src *Host) ([]int, bool) {
	sim := c.sim[:0]
	for _, h := range c.hosts {
		sim = append(sim, h.committed)
	}
	c.sim = sim
	plan := c.plan[:0]
	for _, g := range src.guests {
		best := -1
		for _, h := range c.hosts {
			if h == src || g.Nominal > h.cap {
				continue
			}
			if sim[h.index]+g.Nominal > h.cap*overcommitPct/100 {
				continue
			}
			if best < 0 || sim[h.index] > sim[best] {
				best = h.index
			}
		}
		if best < 0 {
			c.plan = plan
			return nil, false
		}
		sim[best] += g.Nominal
		plan = append(plan, best)
	}
	c.plan = plan
	return plan, true
}

// level narrows the spread policy's commitment gap by one migration: the
// guest on the most-committed host whose size best closes the gap without
// overshooting moves to the least-committed host.
func (c *Cluster) level(work workFactory) (int, error) {
	var hi, lo *Host
	for _, h := range c.hosts {
		if hi == nil || h.committed > hi.committed {
			hi = h
		}
		if lo == nil || h.committed < lo.committed {
			lo = h
		}
	}
	if hi == nil || hi == lo {
		return 0, nil
	}
	diff := hi.committed - lo.committed
	var pick *Guest
	for _, g := range hi.guests {
		// Moving g must not overshoot (2*Nominal <= diff keeps hi >= lo
		// afterwards, so leveling cannot ping-pong); among candidates the
		// largest mover closes the most gap, ties to the earliest placed.
		if 2*g.Nominal <= diff && (pick == nil || g.Nominal > pick.Nominal) {
			pick = g
		}
	}
	if pick == nil {
		return 0, nil
	}
	var hook func(int)
	if work != nil {
		hook = work(pick)
	}
	if _, err := c.migrate(pick, lo, hook); err != nil {
		if errors.Is(err, ErrNoHostFits) {
			c.note(logLevel, pick.name, 0, hi.index, lo.index)
			return 0, nil
		}
		return 0, err
	}
	return 1, nil
}
