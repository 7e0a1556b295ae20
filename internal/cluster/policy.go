package cluster

import "errors"

// Policy selects how the control plane chooses a host for a new guest.
type Policy int

// The placement policies.
const (
	// BinPack places each guest on the most-committed host that can still
	// admit it — consolidating load onto few hosts, the policy that makes
	// overcommit (and the balloon squeeze) earn its keep.
	BinPack Policy = iota
	// Spread places each guest on the least-committed host — leveling
	// load, trading consolidation for headroom.
	Spread
)

// String returns the policy's table label.
func (p Policy) String() string {
	switch p {
	case BinPack:
		return "binpack"
	case Spread:
		return "spread"
	default:
		return "invalid"
	}
}

// Policies lists every placement policy in sweep order.
var Policies = []Policy{BinPack, Spread}

// Typed control-plane errors. Callers match them with errors.Is.
var (
	// ErrNoHostFits is the admission rejection: no host can admit the
	// guest within its overcommit bound (or physically, after squeezing
	// placed guests to their residency floor).
	ErrNoHostFits = errors.New("cluster: no host can admit the domain")
	// ErrAlreadyPlaced is returned when placing a name the cluster
	// already tracks.
	ErrAlreadyPlaced = errors.New("cluster: domain name already placed")
	// ErrUnknownGuest is returned for operations on a name never placed
	// (or already removed).
	ErrUnknownGuest = errors.New("cluster: no such guest")
	// ErrBadHost is returned for a host index outside the fleet.
	ErrBadHost = errors.New("cluster: host index out of range")
	// ErrTooLarge is returned for a fleet or a guest past what a
	// placement-log record holds: more than 65,536 hosts, or a guest of
	// more than 2^32-1 pages.
	ErrTooLarge = errors.New("cluster: past the placement log's limits")
)

// admits reports whether h can admit nominal more pages within the
// overcommit bound. A guest larger than the host's whole capacity never
// fits, overcommit or not.
func (c *Cluster) admits(h *Host, nominal int) bool {
	if nominal > h.cap {
		return false
	}
	return h.committed+nominal <= h.cap*overcommitPct/100
}

// candidates returns the hosts that admit nominal pages, best-preference
// first under the cluster's policy. The scan is by host index with strict
// comparisons, so ties deterministically favor the lower index. The result
// reuses the cluster's scratch slice: it is valid until the next call.
func (c *Cluster) candidates(nominal int) []*Host {
	out := c.cand[:0]
	for _, h := range c.hosts {
		if c.admits(h, nominal) {
			out = append(out, h)
		}
	}
	// Insertion sort by preference keeps the index-order tie-break stable
	// without a comparison function ranging over anything unordered.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && c.prefer(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	c.cand = out
	return out
}

// prefer reports whether a is a strictly better placement target than b
// under the cluster's policy.
func (c *Cluster) prefer(a, b *Host) bool {
	switch c.cfg.Policy {
	case Spread:
		return a.committed < b.committed
	default: // BinPack
		return a.committed > b.committed
	}
}
