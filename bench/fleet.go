package bench

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"

	"vmmk/internal/cluster"
	"vmmk/internal/hw"
	"vmmk/internal/simrand"
)

// The fleet workload's shape: seeded churn on one cluster, rebooted every
// fleetEpochOps events with the placement policy alternating.
const (
	fleetEpochOps   = 1024
	fleetEpochs     = 64 // per full-size rep
	fleetHosts      = 16
	fleetHostFrames = 192
	fleetArrivalPct = 60
	fleetMinPages   = 12
	fleetMaxPages   = 44
)

// fleetWorkload is the E13 control plane at scale.
var fleetWorkload = &Workload{
	Name:     "fleet",
	Ops:      fleetEpochOps * fleetEpochs,
	EpochOps: fleetEpochOps,
	spans: []spanMetric{
		{span: "cluster.place", name: "cluster.place_us", unit: "us"},
		{span: "cluster.reject", name: "cluster.reject_us", unit: "us"},
		{span: "cluster.remove", name: "cluster.remove_us", unit: "us"},
		{span: "cluster.rebalance", name: "cluster.rebalance_us", unit: "us"},
		{span: "cluster.boot", name: "cluster.boot_ms", unit: "ms"},
		{span: "cluster.close", name: "cluster.close_ms", unit: "ms"},
	},
	new: newFleet,
}

type fleetRig struct {
	env  *env
	c    *cluster.Cluster
	rng  *simrand.Rand
	live []string // placed guests in placement order, mirrored from the events
	seq  int
	// timed-phase totals
	events, arrivals, rejects int
	migrations, squeezed      int
	logBytes                  int
	downtimes                 []hw.Cycles
}

func newFleet(e *env) rig { return &fleetRig{env: e} }

// setup runs the rep's first epoch untimed: boot, warm-up and the digest
// pre-check.
func (d *fleetRig) setup() error {
	if err := runEpoch(d, fleetEpochOps, d.env.first); err != nil {
		return err
	}
	d.events, d.arrivals, d.rejects, d.migrations, d.squeezed, d.logBytes = 0, 0, 0, 0, 0, 0
	d.downtimes = nil
	return nil
}

func (d *fleetRig) beginEpoch(ep int) error {
	d.rng = d.env.epochRand(ep)
	d.live, d.seq = d.live[:0], 0
	cfg := cluster.Config{Hosts: fleetHosts, HostFrames: fleetHostFrames, Policy: cluster.Policies[ep%len(cluster.Policies)]}
	sp := d.env.tr.begin("cluster.boot")
	c, err := cluster.New(cfg, nil)
	d.env.tr.end(sp)
	d.c = c
	return err
}

// op is one churn event: an arrival placing a guest, or a departure
// removing a random guest followed by a rebalance pass.
func (d *fleetRig) op(int) error {
	tr := d.env.tr
	if len(d.live) == 0 || d.rng.Uint64n(100) < fleetArrivalPct {
		pages := fleetMinPages + d.rng.Intn(fleetMaxPages-fleetMinPages+1)
		name := "g" + strconv.Itoa(d.seq)
		d.seq++
		d.arrivals++
		sp := tr.begin("cluster.place")
		g, err := d.c.Place(name, pages)
		if errors.Is(err, cluster.ErrNoHostFits) {
			tr.rename(sp, "cluster.reject")
		}
		tr.end(sp)
		switch {
		case err == nil:
			if g.Nominal != pages {
				return fmt.Errorf("placed %s with %d pages, asked %d", name, g.Nominal, pages)
			}
			d.live = append(d.live, name)
		case errors.Is(err, cluster.ErrNoHostFits):
			d.rejects++
		default:
			return err
		}
		return nil
	}
	k := d.rng.Intn(len(d.live))
	victim := d.live[k]
	d.live = append(d.live[:k], d.live[k+1:]...)
	sp := tr.begin("cluster.remove")
	err := d.c.Remove(victim)
	tr.end(sp)
	if err != nil {
		return err
	}
	if _, ok := d.c.Guest(victim); ok {
		return fmt.Errorf("removed guest %s is still placed", victim)
	}
	sp = tr.begin("cluster.rebalance")
	_, err = d.c.Rebalance()
	tr.end(sp)
	return err
}

// endEpoch checks that the fleet's books balance, digests its simulated
// statistics and shuts the cluster down.
func (d *fleetRig) endEpoch(ep, ops int) error {
	defer func() {
		sp := d.env.tr.begin("cluster.close")
		d.c.Close()
		d.env.tr.end(sp)
	}()
	st := d.c.Stats()
	log := d.c.Log()
	d.events += ops
	d.migrations += st.Migrations
	d.squeezed += st.Squeezed
	d.downtimes = append(d.downtimes, st.Downtimes...)
	for _, l := range log {
		d.logBytes += len(l)
	}
	if err := d.books(st); err != nil {
		return err
	}
	if ops < fleetEpochOps {
		return nil // a partial epoch has no stored digest
	}
	h := sha256.New()
	fmt.Fprintf(h, "placed=%d rejected=%d removed=%d migrations=%d aborted=%d squeezed=%d downtimes=%v\n",
		st.Placed, st.Rejected, st.Removed, st.Migrations, st.Aborted, st.Squeezed, st.Downtimes)
	for _, l := range log {
		fmt.Fprintln(h, l)
	}
	for _, host := range d.c.Hosts() {
		fmt.Fprintf(h, "host%d committed=%d guests=%d ", host.Index(), host.Committed(), host.GuestCount())
		machineStats(h, host.Machine())
	}
	for _, g := range d.c.Guests() {
		fmt.Fprintf(h, "%s %d host%d dom%d resident=%d\n", g.Name, g.Nominal, g.Host(), g.DomID(), g.Resident())
	}
	return d.env.checkEpoch(ep, epochDigest(h))
}

// books checks the control plane's conservation laws: committed pages agree
// three ways, every guest's domain is live on its host, and the guest list
// is what the events left behind.
func (d *fleetRig) books(st cluster.Stats) error {
	hosts := d.c.Hosts()
	committed := 0
	for _, h := range hosts {
		committed += h.Committed()
	}
	guests := d.c.Guests()
	nominal := 0
	for _, g := range guests {
		nominal += g.Nominal
		if !hosts[g.Host()].Hypervisor().Alive(g.DomID()) {
			return fmt.Errorf("guest %s: domain %d not live on host%d", g.Name, g.DomID(), g.Host())
		}
	}
	if committed != d.c.CommittedPages() || nominal != committed {
		return fmt.Errorf("books: hosts commit %d, cluster %d, guests %d pages", committed, d.c.CommittedPages(), nominal)
	}
	if st.Placed-st.Removed != len(guests) {
		return fmt.Errorf("books: placed %d - removed %d != %d guests", st.Placed, st.Removed, len(guests))
	}
	if len(guests) != len(d.live) {
		return fmt.Errorf("books: %d guests placed, events left %d", len(guests), len(d.live))
	}
	for i, g := range guests {
		if g.Name != d.live[i] {
			return fmt.Errorf("books: guest %d is %s, events left %s", i, g.Name, d.live[i])
		}
	}
	return nil
}

func (d *fleetRig) counters() map[string]float64 {
	if d.events == 0 {
		return nil
	}
	kev := float64(d.events) / 1000
	out := map[string]float64{
		"cluster.migrations_per_kevent":     float64(d.migrations) / kev,
		"cluster.squeezed_pages_per_kevent": float64(d.squeezed) / kev,
		"cluster.log_bytes_per_event":       float64(d.logBytes) / float64(d.events),
		"cluster.downtime_p99_cycles":       float64(cluster.Stats{Downtimes: d.downtimes}.DowntimeP99()),
	}
	if d.arrivals > 0 {
		out["cluster.reject_frac"] = float64(d.rejects) / float64(d.arrivals)
	}
	return out
}
