package vmm

import (
	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// GrantRef names an entry in a domain's grant table: the entry's slot,
// plus its generation times grantRefStride.
type GrantRef int

// grantRefStride separates the refs of successive occupants of one grant
// slot, as chanPortStride separates channel ports. Every ref below it
// names generation 0, and slot indexes stay far below it in any realistic
// run.
const grantRefStride = 1 << 24

// grantEntry is one granted page. Nothing reads a freed entry's frame, so
// while the slot is free its frame field links the free list instead, and
// an entry stays 16 bytes.
type grantEntry struct {
	frame    hw.FrameID // the granted page; while free, 1 + the next free slot, 0 at the list's end
	to       DomID
	readOnly bool
	revoked  bool
	mapped   int32 // active foreign mappings
	gen      int32 // the slot's generation: bumped when the slot is freed
}

// grantTable is a domain's table of pages it has offered to other domains.
// Grants are the mutual-agreement half of Xen I/O: the frontend grants, the
// backend maps/copies/flips. Entries are stored by value; the pointers the
// lookup helpers hand out are into the slice and stay valid only until the
// next GrantAccess, which every caller satisfies by finishing its hypercall
// before issuing another grant.
//
// A slot whose entry is revoked with no foreign mapping left goes on the
// free list, and GrantAccess reuses it, so a driver that grants each
// packet's page and has it flipped or revoked keeps a table of a few
// entries, not one per packet. The list is LIFO and runs through the free
// entries themselves, so it costs the Domain one word. Freeing a slot
// bumps its generation, which every ref encodes, so a ref to an earlier
// occupant stays stale: it gets ErrGrantRevoked, as a revoked entry does,
// and never reaches the slot's next grant.
type grantTable struct {
	entries []grantEntry
	free    int // 1 + the first free slot, 0 when none is free
}

// entry resolves ref to its slot's entry, and reports whether ref names the
// slot's current occupant rather than an earlier one. A ref that names no
// slot, or a generation the slot has not reached, resolves to nil.
func (g *grantTable) entry(ref GrantRef) (e *grantEntry, current bool) {
	if ref < 0 {
		return nil, false
	}
	slot, gen := int(ref%grantRefStride), int(ref/grantRefStride)
	if slot >= len(g.entries) || gen > int(g.entries[slot].gen) {
		return nil, false
	}
	e = &g.entries[slot]
	return e, gen == int(e.gen)
}

// release frees the slot of the entry ref currently names once that entry
// is revoked and no foreign mapping is left. Every caller has just revoked
// the entry or dropped one of its mappings, and a revoked entry gains no
// mapping, so each occupant frees its slot once.
func (g *grantTable) release(ref GrantRef) {
	slot := int(ref % grantRefStride)
	if e := &g.entries[slot]; e.revoked && e.mapped == 0 {
		e.gen++
		e.frame = hw.FrameID(g.free)
		g.free = slot + 1
	}
}

// GrantAccess creates a grant of the owner's frame to domain to. The owner
// must actually own the frame; this is the monitor's validation burden.
// The grant takes a freed slot when there is one.
func (h *Hypervisor) GrantAccess(owner DomID, frame hw.FrameID, to DomID, readOnly bool) (GrantRef, error) {
	d, err := h.lookup(owner)
	if err != nil {
		return 0, err
	}
	if !d.OwnsFrame(frame) {
		return 0, ErrFrameNotOwned
	}
	h.hypercallEntry(d)
	defer h.hypercallExit()
	g := &d.grants
	slot := len(g.entries)
	if g.free > 0 {
		slot = g.free - 1
		g.free = int(g.entries[slot].frame)
	} else {
		g.entries = append(g.entries, grantEntry{})
	}
	gen := g.entries[slot].gen
	g.entries[slot] = grantEntry{frame: frame, to: to, readOnly: readOnly, gen: gen}
	h.M.CPU.Work(h.comp, 60)
	return GrantRef(int(gen)*grantRefStride + slot), nil
}

// GrantSlots returns how many slots the domain's grant table holds, free
// ones included: the table's size, which the slot reuse bounds by the
// grants outstanding at once.
func (d *Domain) GrantSlots() int { return len(d.grants.entries) }

// lookupGrant validates a (owner, ref) pair for use by domain user.
func (h *Hypervisor) lookupGrant(owner DomID, ref GrantRef, user DomID) (*Domain, *grantEntry, error) {
	d := h.dom(owner)
	if d == nil {
		return nil, nil, ErrDomainDead
	}
	e, current := d.grants.entry(ref)
	if e == nil {
		return nil, nil, ErrBadGrant
	}
	if !current || e.revoked {
		return nil, nil, ErrGrantRevoked
	}
	if e.to != user {
		return nil, nil, ErrBadGrant
	}
	return d, e, nil
}

// GrantMap maps a granted page into the user domain at vpn (netback-style
// zero-copy RX examination). Costs: hypercall + PTE install.
func (h *Hypervisor) GrantMap(user DomID, owner DomID, ref GrantRef, vpn hw.VPN) error {
	ud, err := h.lookup(user)
	if err != nil {
		return err
	}
	od, e, err := h.lookupGrant(owner, ref, user)
	if err != nil {
		return err
	}
	if !od.OwnsFrame(e.frame) {
		// The frame left the granter (another grant's flip): the grant
		// dangles and must not expose the new owner's memory.
		return ErrGrantRevoked
	}
	h.hypercallEntry(ud)
	defer h.hypercallExit()
	perms := hw.PermRW
	if e.readOnly {
		perms = hw.PermR
	}
	ud.remapping(vpn)
	ud.PT.Map(vpn, hw.PTE{Frame: e.frame, Perms: perms, User: false})
	e.mapped++
	h.M.CPU.Charge(h.comp, trace.KGrantMap, h.M.Arch.Costs.PTEUpdate+40)
	return nil
}

// GrantUnmap removes a previously mapped grant from the user domain. The
// owner may already be dead or destroyed — tearing down one's own mapping
// of a defunct peer's page must always succeed (frontends unmap after a
// backend crash); only the grant's map count is then left unadjusted. So
// is it for a stale ref, whose slot another grant may hold by now. The
// last unmap of a revoked grant frees its slot.
func (h *Hypervisor) GrantUnmap(user DomID, owner DomID, ref GrantRef, vpn hw.VPN) error {
	ud, err := h.lookup(user)
	if err != nil {
		return err
	}
	var (
		g *grantTable
		e *grantEntry
	)
	if d := h.dom(owner); d != nil {
		ge, current := d.grants.entry(ref)
		if ge == nil {
			return ErrBadGrant
		}
		if current {
			g, e = &d.grants, ge
		}
	} else if int(owner) >= len(h.domains) {
		return ErrNoSuchDomain
	}
	h.hypercallEntry(ud)
	defer h.hypercallExit()
	ud.remapping(vpn)
	ud.PT.Unmap(vpn)
	if e != nil && e.mapped > 0 {
		e.mapped--
		g.release(ref)
	}
	h.M.CPU.Work(h.comp, h.M.Arch.Costs.PTEUpdate)
	h.M.CPU.FlushTLBEntry(h.comp, ud.PT.ASID(), vpn)
	return nil
}

// GrantCopy copies n bytes from a granted source page into the user's
// buffer frame, mediated and validated by the monitor. This is the
// copy-mode alternative to page flipping whose trade-off E9 ablates (and
// which Xen itself later adopted for network RX).
func (h *Hypervisor) GrantCopy(user DomID, owner DomID, ref GrantRef, dst hw.FrameID, n uint64) error {
	ud, err := h.lookup(user)
	if err != nil {
		return err
	}
	if !ud.OwnsFrame(dst) {
		return ErrFrameNotOwned
	}
	od, e, err := h.lookupGrant(owner, ref, user)
	if err != nil {
		return err
	}
	if !od.OwnsFrame(e.frame) {
		return ErrGrantRevoked // dangling: the frame was flipped away
	}
	h.hypercallEntry(ud)
	defer h.hypercallExit()
	copied := h.M.Mem.Copy(dst, e.frame, n)
	h.M.CPU.Charge(h.comp, trace.KGrantCopy, 120+h.M.CPU.CopyCost(copied))
	return nil
}

// GrantTransfer performs a page flip: ownership of the granted frame moves
// from owner to user, the owner's mappings of it are torn down, and the TLB
// is shot down. Paper primitive 6 ("resource re-allocation via page
// flipping"). Note the cost structure: per *page*, independent of how many
// bytes of the page carry payload — the exact property Cherkasova &
// Gardner measured and E1 reproduces.
func (h *Hypervisor) GrantTransfer(user DomID, owner DomID, ref GrantRef) (hw.FrameID, error) {
	ud, err := h.lookup(user)
	if err != nil {
		return hw.NoFrame, err
	}
	od, e, err := h.lookupGrant(owner, ref, user)
	if err != nil {
		return hw.NoFrame, err
	}
	if e.readOnly {
		return hw.NoFrame, ErrGrantReadOnly
	}
	if !od.OwnsFrame(e.frame) {
		// The same frame was granted more than once and another grant's
		// flip already moved it: this grant dangles. Without this check a
		// second transfer would reassign a frame its granter no longer
		// owns and desynchronise the ownership ledger.
		return hw.NoFrame, ErrGrantRevoked
	}
	h.hypercallEntry(ud)
	defer h.hypercallExit()

	// The flip consumes the grant, and a freed slot's frame field links
	// the free list, so the frame is read once, here.
	f := e.frame
	e.revoked = true
	od.grants.release(ref)
	// Tear down the previous owner's mappings of the frame.
	removed := od.PT.UnmapFrame(f)
	h.M.CPU.Work(h.comp, hw.Cycles(removed)*h.M.Arch.Costs.PTEUpdate)
	// Ownership moves in the physical ledger and in both frame lists.
	h.M.Mem.Transfer(f, ud.comp)
	od.removeFrame(f)
	ud.addFrame(f)
	// TLB shootdown: the flip invalidates translations machine-wide.
	h.M.CPU.FlushTLB(h.comp)
	h.M.CPU.Charge(h.comp, trace.KPageFlip,
		2*h.M.Arch.Costs.PTEUpdate+h.M.Arch.Costs.TLBFlushAll+200)
	return f, nil
}

// removeFrame punches a hole in the pseudo-physical map: after a flip the
// donor's guest page number maps to nothing until a replacement page is
// ballooned in, exactly like Xen's physical-to-machine table. A frame
// outside the P2M (a ring or driver buffer the domain allocated directly)
// leaves the map untouched.
func (d *Domain) removeFrame(f hw.FrameID) {
	if gpn := d.gpnOf(f); gpn >= 0 {
		d.punch(gpn)
	}
}

// addFrame installs an incoming frame in the P2M's highest hole, or past
// its end when it has none, and returns the guest page number. The
// resident count tells whether a hole exists, so a hole-free P2M costs no
// scan, and in the flip steady state the only hole is the last slot.
func (d *Domain) addFrame(f hw.FrameID) int {
	gpn := len(d.frames)
	if d.resident < gpn {
		gpn--
		for d.frames[gpn] != hw.NoFrame {
			gpn--
		}
	}
	d.install(gpn, f)
	return gpn
}

// GrantRevoke withdraws a grant the owner previously issued. Revoking a
// revoked grant, or through a stale ref, changes nothing but still costs
// the hypercall. A revoked grant nobody has mapped frees its slot.
func (h *Hypervisor) GrantRevoke(owner DomID, ref GrantRef) error {
	return h.endGrant(owner, ref, true)
}

// GrantEnd is GrantRevoke issued by the guest without the hypercall: the
// owner's frontend ends its grant once the request it was made for has
// completed, and the slot is freed once no foreign mapping is left. It
// charges nothing, because in Xen (gnttab_end_foreign_access) the guest
// just writes its own grant entry.
func (h *Hypervisor) GrantEnd(owner DomID, ref GrantRef) error {
	return h.endGrant(owner, ref, false)
}

// endGrant revokes the owner's grant that ref names, if it is the slot's
// current occupant, and pays for the hypercall when hypercall is set.
func (h *Hypervisor) endGrant(owner DomID, ref GrantRef, hypercall bool) error {
	d, err := h.lookup(owner)
	if err != nil {
		return err
	}
	e, current := d.grants.entry(ref)
	if e == nil {
		return ErrBadGrant
	}
	if current && !e.revoked {
		e.revoked = true
		d.grants.release(ref)
	}
	if hypercall {
		h.hypercallEntry(d)
		h.M.CPU.Work(h.comp, 40)
		h.hypercallExit()
	}
	return nil
}
