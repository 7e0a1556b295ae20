package vmm

import (
	"errors"
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
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
// A Link carries one migration at a time, and the same Link can carry one
// migration after another: Transport starts each.
type Link struct {
	// PerPage is the bandwidth term: link cycles per page transferred.
	PerPage hw.Cycles
	// Latency is the propagation term: link cycles per transfer round,
	// paid even for an empty round.
	Latency hw.Cycles
	// Budget, when positive, is the page transfers one migration's link
	// carries before going down — a round that would exceed it fails
	// whole.
	Budget int

	pages            int
	src, dst         *hw.Machine
	srcComp, dstComp trace.Comp
	hook             func(round, pages int) error // l.carry, made on first use
}

// Pages returns how many page transfers the link has carried in the
// migration its last Transport started.
func (l *Link) Pages() int { return l.pages }

// Transport starts a migration from src to dst on the link and returns the
// LiveOpts.Transport hook for it. It zeroes the page count, so Budget
// bounds each migration, and interns both endpoint components, so the hook
// charges Latency once per round plus PerPage per page to each machine's
// LinkComponent. When the budget would be exceeded the hook reports
// ErrLinkDown without charging — the round never crossed. The hook is the
// link's own and is the same for every migration: a later Transport
// rebinds it to that migration's endpoints.
func (l *Link) Transport(src, dst *hw.Machine) func(round, pages int) error {
	l.pages = 0
	l.src, l.dst = src, dst
	l.srcComp, l.dstComp = src.Rec.Intern(LinkComponent), dst.Rec.Intern(LinkComponent)
	if l.hook == nil {
		l.hook = l.carry
	}
	return l.hook
}

// carry is the transport hook: one round of pages crosses, or the link
// goes down.
func (l *Link) carry(round, pages int) error {
	if l.Budget > 0 && l.pages+pages > l.Budget {
		return fmt.Errorf("%w: round %d needs %d pages, %d of %d remain",
			ErrLinkDown, round, pages, l.Budget-l.pages, l.Budget)
	}
	l.pages += pages
	if l.Latency > 0 {
		l.src.CPU.Work(l.srcComp, l.Latency)
		l.dst.CPU.Work(l.dstComp, l.Latency)
	}
	if l.PerPage > 0 && pages > 0 {
		l.src.CPU.WorkN(l.srcComp, l.PerPage, uint64(pages))
		l.dst.CPU.WorkN(l.dstComp, l.PerPage, uint64(pages))
	}
	return nil
}
