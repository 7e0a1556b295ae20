package vmm

import (
	"errors"
	"fmt"

	"vmmk/internal/hw"
)

// The migration link: live migration's pages do not teleport — they cross a
// network whose bandwidth and latency are guest-visible costs (the blackout
// batch crosses while the guest is paused). Link models that network for
// LiveOpts.Transport: a per-round propagation latency, a per-page bandwidth
// cost, and an optional page budget after which the link is down. The costs
// are charged to each endpoint machine's own "vmm.link" trace component, so
// fleet-level accounting (internal/cluster, E13) can attribute link time
// per host.

// ErrLinkDown is returned by a Link whose page budget is exhausted; it
// surfaces from MigrateLive wrapped in ErrMigrationAborted.
var ErrLinkDown = errors.New("vmm: migration link down")

// LinkComponent is the trace component name link time is charged to on each
// endpoint machine.
const LinkComponent = "vmm.link"

// Link models the network between two migration endpoints. The zero Link
// is a free, infinite link (no cost, no budget); set PerPage/Latency for
// costs and Budget to make the link fail after that many page transfers.
type Link struct {
	// PerPage is the bandwidth term: link cycles per page transferred.
	PerPage hw.Cycles
	// Latency is the propagation term: link cycles per transfer round,
	// paid even for an empty round.
	Latency hw.Cycles
	// Budget, when positive, is the total page transfers the link carries
	// before going down — a round that would exceed it fails whole.
	Budget int

	pages int
}

// Pages returns how many page transfers the link has carried.
func (l *Link) Pages() int { return l.pages }

// Transport binds the link to a source and destination machine and returns
// the LiveOpts.Transport hook for a migration between them. Both endpoint
// components are interned here, at bind time; the returned hook charges
// Latency once per round plus PerPage per page to each machine's
// LinkComponent. When the budget would be exceeded the hook reports
// ErrLinkDown without charging — the round never crossed.
func (l *Link) Transport(src, dst *hw.Machine) func(round, pages int) error {
	srcComp := src.Rec.Intern(LinkComponent)
	dstComp := dst.Rec.Intern(LinkComponent)
	return func(round, pages int) error {
		if l.Budget > 0 && l.pages+pages > l.Budget {
			return fmt.Errorf("%w: round %d needs %d pages, %d of %d remain",
				ErrLinkDown, round, pages, l.Budget-l.pages, l.Budget)
		}
		l.pages += pages
		if l.Latency > 0 {
			src.CPU.Work(srcComp, l.Latency)
			dst.CPU.Work(dstComp, l.Latency)
		}
		if l.PerPage > 0 && pages > 0 {
			src.CPU.WorkN(srcComp, l.PerPage, uint64(pages))
			dst.CPU.WorkN(dstComp, l.PerPage, uint64(pages))
		}
		return nil
	}
}
