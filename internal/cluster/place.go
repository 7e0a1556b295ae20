package cluster

import (
	"fmt"
	"strconv"
)

// squeezeChunk bounds how many pages one balloon-out takes from a single
// guest before the squeeze reconsiders who is richest — spreading the pain
// across a host's guests instead of draining one.
const squeezeChunk = 8

// Place admits a guest of nominal pages under the cluster's policy and
// creates its domain. Under overcommit the chosen host may be physically
// short; the control plane then balloons placed guests down (never below
// minResident) to free real frames. Placement failures are typed:
// ErrAlreadyPlaced for a duplicate name, ErrTooLarge for a guest past the
// placement log's page count, ErrNoHostFits when no host can admit the
// guest either by commitment or physically.
func (c *Cluster) Place(name string, nominal int) (*Guest, error) {
	if nominal <= 0 {
		return nil, fmt.Errorf("cluster: guest %q needs a positive size, got %d", name, nominal)
	}
	if uint64(nominal) > maxGuestPages {
		return nil, fmt.Errorf("%w: guest %q of %d pages, at most %d", ErrTooLarge, name, nominal, uint64(maxGuestPages))
	}
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrAlreadyPlaced, name)
	}
	for _, h := range c.candidates(nominal) {
		free := h.m.Mem.FreeFrames()
		if free < nominal && free+c.reclaimable(h) < nominal {
			continue // admitted by commitment but physically hopeless
		}
		if free < nominal {
			if err := c.squeeze(h, nominal-free); err != nil {
				return nil, err
			}
		}
		d, err := h.hv.CreateDomain(name, nominal)
		if err != nil {
			return nil, fmt.Errorf("cluster: place %q on host%d: %w", name, h.index, err)
		}
		g := &Guest{Name: name, Nominal: nominal, dom: d.ID, host: h, name: c.intern(name)}
		h.guests = append(h.guests, g)
		h.committed += nominal
		c.guests = append(c.guests, g)
		c.byName[name] = g
		c.stats.Placed++
		c.note(logPlace, g.name, nominal, h.index, 0)
		return g, nil
	}
	c.stats.Rejected++
	c.note(logReject, c.intern(name), nominal, 0, 0)
	return nil, &rejection{name: name, pages: nominal}
}

// rejection is Place's admission refusal, ErrNoHostFits for one guest. It
// renders its text only when read, as fmt.Errorf("%w: %q (%d pages)",
// ErrNoHostFits, name, pages) would.
type rejection struct {
	name  string
	pages int
}

func (e *rejection) Error() string {
	b := append([]byte(ErrNoHostFits.Error()), ": "...)
	b = append(strconv.AppendQuote(b, e.name), " ("...)
	return string(append(strconv.AppendInt(b, int64(e.pages), 10), " pages)"...))
}

func (e *rejection) Unwrap() error { return ErrNoHostFits }

// Remove destroys a placed guest's domain and reflates the remaining
// guests on its host back toward their nominal sizes.
func (c *Cluster) Remove(name string) error {
	g, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownGuest, name)
	}
	h := g.host
	if err := h.hv.DestroyDomain(g.dom); err != nil {
		return fmt.Errorf("cluster: remove %q: %w", name, err)
	}
	c.drop(g)
	c.stats.Removed++
	c.note(logRemove, g.name, 0, h.index, 0)
	return c.reflate(h)
}

// drop erases the guest from the control plane's books.
func (c *Cluster) drop(g *Guest) {
	h := g.host
	h.committed -= g.Nominal
	for i, hg := range h.guests {
		if hg == g {
			h.guests = append(h.guests[:i], h.guests[i+1:]...)
			break
		}
	}
	for i, cg := range c.guests {
		if cg == g {
			c.guests = append(c.guests[:i], c.guests[i+1:]...)
			break
		}
	}
	delete(c.byName, c.names[g.name])
}

// reclaimable returns how many pages the squeeze could balloon out of h's
// guests without pushing any below minResident.
func (c *Cluster) reclaimable(h *Host) int {
	total := 0
	for _, g := range h.guests {
		if own := g.Resident(); own > minResident {
			total += own - minResident
		}
	}
	return total
}

// squeeze balloons need pages out of h's guests, repeatedly taking up to
// squeezeChunk from whichever guest is richest (ties favor the earliest
// placed). Callers check reclaimable first; running dry anyway is an
// internal inconsistency, not an admission rejection.
func (c *Cluster) squeeze(h *Host, need int) error {
	for need > 0 {
		var victim *Guest
		most := minResident
		for _, g := range h.guests {
			if own := g.Resident(); own > most {
				victim, most = g, own
			}
		}
		if victim == nil {
			return fmt.Errorf("cluster: host%d squeeze ran dry with %d pages still needed", h.index, need)
		}
		take := most - minResident
		if take > need {
			take = need
		}
		if take > squeezeChunk {
			take = squeezeChunk
		}
		got, err := h.hv.BalloonOut(victim.dom, take)
		if err != nil {
			return fmt.Errorf("cluster: squeeze %q on host%d: %w", victim.Name, h.index, err)
		}
		c.stats.Squeezed += got
		need -= got
	}
	return nil
}

// reflate gives freed frames back to h's squeezed guests, in placement
// order, until each is back at its nominal size or the host runs out of
// free frames.
func (c *Cluster) reflate(h *Host) error {
	free := h.m.Mem.FreeFrames()
	for _, g := range h.guests {
		if free <= 0 {
			break
		}
		deficit := g.Nominal - g.Resident()
		if deficit <= 0 {
			continue
		}
		if deficit > free {
			deficit = free
		}
		got, err := h.hv.BalloonIn(g.dom, deficit)
		if err != nil {
			return fmt.Errorf("cluster: reflate %q on host%d: %w", g.Name, h.index, err)
		}
		free -= got
	}
	return nil
}
