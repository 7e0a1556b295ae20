package cluster

import (
	"errors"
	"fmt"
	"strconv"

	"vmmk/internal/simrand"
)

// ChurnOpts parameterises a churn run. The zero value is normalized to the
// published defaults; only Seed has no default — equal seeds mean equal
// runs, which is the point.
type ChurnOpts struct {
	// Events is how many arrival/departure events to draw (default 32).
	Events int
	// Seed seeds the churn's simrand stream. Every decision — arrival vs
	// departure, guest size, which guest departs, migration dirtying —
	// draws from this one stream, so (Seed, Policy, fleet) reproduces the
	// run exactly.
	Seed uint64
	// MinPages/MaxPages bound arriving guests' nominal sizes
	// (defaults 8 and 24).
	MinPages, MaxPages int
	// ArrivalPct is the percentage of events that are arrivals
	// (default 60); an empty cluster always takes an arrival.
	ArrivalPct int
	// DirtyPerRound is how many pages a migrating guest writes per
	// pre-copy round while its memory crosses (default 4).
	DirtyPerRound int
}

// defaults normalizes zero fields in place.
func (o *ChurnOpts) defaults() {
	if o.Events <= 0 {
		o.Events = 32
	}
	if o.MinPages <= 0 {
		o.MinPages = 8
	}
	if o.MaxPages < o.MinPages {
		o.MaxPages = o.MinPages + 16
	}
	if o.ArrivalPct <= 0 {
		o.ArrivalPct = 60
	}
	if o.DirtyPerRound <= 0 {
		o.DirtyPerRound = 4
	}
}

// RunChurn drives the cluster through a seeded arrival/departure workload:
// arrivals place a guest of random size (admission rejections are counted,
// not fatal); departures remove a random guest and then rebalance under
// the cluster's policy — consolidation migrations for BinPack, leveling
// for Spread — with the departing workload's neighbours dirtying pages
// while they move. Stats() and Log() record what happened.
func (c *Cluster) RunChurn(o ChurnOpts) error {
	ch := c.newChurn(o)
	for i := 0; i < ch.o.Events; i++ {
		if err := ch.event(i); err != nil {
			return err
		}
	}
	return nil
}

// churn is a churn run in progress: the normalized options and the one
// simrand stream every decision draws from.
type churn struct {
	c   *Cluster
	o   ChurnOpts
	rng *simrand.Rand
}

func (c *Cluster) newChurn(o ChurnOpts) *churn {
	o.defaults()
	return &churn{c: c, o: o, rng: simrand.New(o.Seed)}
}

// event draws and runs churn event i: one arrival, or one departure and
// the rebalance pass after it.
func (ch *churn) event(i int) error {
	c, o, rng := ch.c, ch.o, ch.rng
	arrival := len(c.guests) == 0 || int(rng.Uint64n(100)) < o.ArrivalPct
	if arrival {
		pages := o.MinPages + rng.Intn(o.MaxPages-o.MinPages+1)
		name := guestName(c.seq)
		c.seq++
		if _, err := c.Place(name, pages); err != nil && !errors.Is(err, ErrNoHostFits) {
			return fmt.Errorf("cluster: churn event %d: %w", i, err)
		}
		return nil
	}
	victim := c.guests[rng.Intn(len(c.guests))]
	if err := c.Remove(victim.Name); err != nil {
		return fmt.Errorf("cluster: churn event %d: %w", i, err)
	}
	if _, err := c.rebalance(ch.dirt); err != nil {
		return fmt.Errorf("cluster: churn event %d rebalance: %w", i, err)
	}
	return nil
}

// guestName names arrival seq (seq >= 0): "d" and seq zero-padded to at
// least three digits, the string fmt's "d%03d" makes, built without fmt.
func guestName(seq int) string {
	var buf [24]byte
	b := append(buf[:0], 'd')
	if seq < 100 {
		b = append(b, '0')
	}
	if seq < 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(seq), 10))
}

// dirt is the churn's workFactory: the migrating guest writes
// DirtyPerRound random pages per pre-copy round.
func (ch *churn) dirt(g *Guest) func(round int) {
	// Capture the guest's placement at migration start; the writes go
	// through the source hypervisor, where the dirty log sees them.
	hv, dom := g.host.hv, g.dom
	return func(round int) {
		d := hv.Domain(dom)
		if d == nil {
			return
		}
		span := len(d.Frames())
		if span == 0 {
			return
		}
		for k := 0; k < ch.o.DirtyPerRound; k++ {
			gpn := ch.rng.Intn(span)
			// Writes to ballooned-out holes fail by design; the draw
			// still advances the stream deterministically.
			_ = hv.GuestMemWrite(dom, gpn, 0, []byte{byte(round + k)})
		}
	}
}
