package cluster

import (
	"errors"
	"fmt"
	"strconv"

	"vmmk/internal/simrand"
)

// Churn's fixed shape. Arriving guests are sized a healthy fraction of a
// host (churnMinPages to churnMaxPages), so admission control and the
// balloon squeeze work for their keep: small fleets run out of commitment
// headroom under sustained churn. churnArrivalPct of events are arrivals
// (an empty cluster always takes one), and a migrating guest writes
// churnDirtyPerRound pages per pre-copy round while its memory crosses.
const (
	churnMinPages      = 12
	churnMaxPages      = 44
	churnArrivalPct    = 60
	churnDirtyPerRound = 4
)

// RunChurn drives the cluster through a seeded arrival/departure workload
// of the given number of events: arrivals place a guest of random size
// (admission rejections are counted, not fatal); departures remove a
// random guest and then rebalance under the cluster's policy —
// consolidation migrations for BinPack, leveling for Spread — with the
// departing workload's neighbours dirtying pages while they move. Every
// decision — arrival vs departure, guest size, which guest departs,
// migration dirtying — draws from one simrand stream seeded with seed, so
// (seed, policy, fleet) reproduces the run exactly. Stats() and Log()
// record what happened.
func (c *Cluster) RunChurn(events int, seed uint64) error {
	ch := c.newChurn(seed)
	for i := 0; i < events; i++ {
		if err := ch.event(i); err != nil {
			return err
		}
	}
	return nil
}

// churn is a churn run in progress: the one simrand stream every decision
// draws from.
type churn struct {
	c   *Cluster
	rng *simrand.Rand
}

func (c *Cluster) newChurn(seed uint64) *churn {
	return &churn{c: c, rng: simrand.New(seed)}
}

// event draws and runs churn event i: one arrival, or one departure and
// the rebalance pass after it.
func (ch *churn) event(i int) error {
	c, rng := ch.c, ch.rng
	arrival := len(c.guests) == 0 || int(rng.Uint64n(100)) < churnArrivalPct
	if arrival {
		pages := churnMinPages + rng.Intn(churnMaxPages-churnMinPages+1)
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
// churnDirtyPerRound random pages per pre-copy round.
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
		for k := 0; k < churnDirtyPerRound; k++ {
			gpn := ch.rng.Intn(span)
			// Writes to ballooned-out holes fail by design; the draw
			// still advances the stream deterministically.
			_ = hv.GuestMemWrite(dom, gpn, 0, []byte{byte(round + k)})
		}
	}
}
