package hw

import (
	"fmt"
	"slices"
)

// Perm is a page permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

// String renders the permission set as "rwx" with dashes for absent bits.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Allows reports whether p grants every bit in want.
func (p Perm) Allows(want Perm) bool { return p&want == want }

// PTE is one page-table entry: a VPN -> frame mapping with permissions and
// a user/supervisor bit.
type PTE struct {
	Frame FrameID
	Perms Perm
	User  bool // accessible from user privilege
}

// VPN is a virtual page number (virtual address >> PageShift).
type VPN uint64

// densePTE is a PTE plus a presence bit, sized so the dense region is a
// flat pointer-free array the garbage collector never scans.
type densePTE struct {
	frame   FrameID
	perms   Perm
	user    bool
	present bool
}

// PageTable is a single-space page table. The simulated depth
// (Arch.PTLevels) affects only walk cost, not the data structure.
//
// Layout: domains and spaces map their pages densely from VPN 0 (identity
// maps, process images), so the low VPN range, up to the table's span,
// lives in a flat array — constant-time, allocation-free, hash-free. The
// occasional high mapping (pager and grant windows at 0x1000+) overflows
// into a map. Map/Lookup dispatch on the VPN alone, so the split is
// invisible to callers. A sized table allocates the entries its caller
// said it would map up front; a NewPageTable table starts empty. Either
// grows its array only as Map reaches past it into the span, so a space
// that maps a handful of pages costs a handful of entries. A VPN below the
// span never enters the map, so a VPN past the array's current end is
// simply unmapped.
type PageTable struct {
	dense  []densePTE  // VPNs in [0, len(dense)); Map grows it up to span
	sparse map[VPN]PTE // VPNs >= span; allocated on first use
	n      int         // total live mappings across both regions
	span   int         // the dense region's reach

	// rev is the reverse lookup state, nil until the first reverse lookup
	// (see frameIndex). One pointer keeps the table at 64 bytes.
	rev *frameIndex

	asid uint16
	top  int32 // dense[top:] has never been mapped, so scans stop at top
}

// denseDefault is the dense-region span for tables built without a hint
// (microkernel spaces): big enough for every process image the workloads
// fault in, at most 2KB of pointer-free memory per space.
const denseDefault = 256

// denseStep is the dense array's first size once Map reaches into an
// unsized table's span; each later growth doubles it, up to the span.
const denseStep = 16

// NewPageTable returns an empty page table tagged with asid. Its dense
// region spans denseDefault VPNs and allocates nothing until Map reaches
// into it.
func NewPageTable(asid uint16) *PageTable {
	return &PageTable{span: denseDefault, asid: asid}
}

// NewPageTableSized is NewPageTable with a capacity hint for callers that
// know how many pages they are about to map: a domain build maps one entry
// per frame. It allocates hint dense entries at once, because growing them
// incrementally showed up in profiles, but spans hint+64 VPNs: a Map into
// the 64 beyond the hint grows the array as an unsized table's grows, so
// the slack costs nothing until used. A hint <= 0 gives NewPageTable.
func NewPageTableSized(asid uint16, hint int) *PageTable {
	if hint <= 0 {
		return NewPageTable(asid)
	}
	return &PageTable{dense: make([]densePTE, hint), span: hint + 64, asid: asid}
}

// growDense grows the dense array to cover vpn, which lies below the span:
// from its current length (at least denseStep entries), doubling, capped at
// the span.
func (pt *PageTable) growDense(vpn VPN) {
	n := max(len(pt.dense), denseStep)
	for VPN(n) <= vpn {
		n *= 2
	}
	d := make([]densePTE, min(n, pt.span))
	copy(d, pt.dense)
	pt.dense = d
}

// frameIndex answers the reverse lookups, frame -> VPNs mapping it. Page
// flipping revokes by frame on every packet, so revocation must not scan
// the whole table. But most tables (identity-mapped domains that never
// flip) never look a frame up, and most lookups that do happen ask about a
// frame the table does not map: a flip of a driver buffer that came from
// the allocator, not from the donor's memory, or a guest releasing a
// flipped frame it never mapped. So both halves are built lazily.
//
// The first reverse lookup builds the filter, one bit per frame, set for
// every frame in the table, in one pass; from then on Map sets the bit of
// each frame it maps, and nothing clears one. A clear bit proves the frame
// is not mapped, and the lookup answers at once. Only a lookup whose bit
// is set builds byFrame, the index proper, and from then on every mutation
// keeps it in lockstep. Almost every frame has exactly one mapping, so the
// index stores that VPN inline and only allocates a set for the rare
// multiply-mapped frame.
type frameIndex struct {
	mapped  []uint64             // the filter: bit f set for any frame Map may have mapped
	byFrame map[FrameID]frameRef // nil until a lookup's bit is set
}

// mark sets f's bit, growing the filter to reach it.
func (x *frameIndex) mark(f FrameID) {
	w := int(f / 64)
	if w >= len(x.mapped) {
		x.mapped = append(x.mapped, make([]uint64, w+1-len(x.mapped))...)
	}
	x.mapped[w] |= 1 << (f % 64)
}

// mayMap reports whether f's bit is set: false proves f is not mapped.
func (x *frameIndex) mayMap(f FrameID) bool {
	w := int(f / 64)
	return w < len(x.mapped) && x.mapped[w]&(1<<(f%64)) != 0
}

// frameRef is one reverse-index slot: the single mapping inline (the
// overwhelmingly common case — no allocation), or the full set once a
// second VPN maps the same frame.
type frameRef struct {
	single VPN
	multi  map[VPN]struct{} // nil unless the frame is multiply mapped
}

// mappings returns the reverse-index slot of f, and false when f is not
// mapped. It builds the filter on the table's first reverse lookup, sized
// to the highest frame mapped, and the index on the first lookup the
// filter cannot answer.
func (pt *PageTable) mappings(f FrameID) (frameRef, bool) {
	if pt.rev == nil {
		hi := FrameID(0)
		pt.Each(func(_ VPN, e PTE) { hi = max(hi, e.Frame) })
		pt.rev = &frameIndex{mapped: make([]uint64, hi/64+1)}
		pt.Each(func(_ VPN, e PTE) { pt.rev.mark(e.Frame) })
	}
	if !pt.rev.mayMap(f) {
		return frameRef{}, false
	}
	if pt.rev.byFrame == nil {
		pt.rev.byFrame = make(map[FrameID]frameRef, pt.n)
		pt.Each(func(v VPN, e PTE) { pt.index(e.Frame, v) })
	}
	ref, ok := pt.rev.byFrame[f]
	return ref, ok
}

// index records that v maps f, once the table has reverse lookup state.
// Tables without it, almost all of them, pay a nil check.
func (pt *PageTable) index(f FrameID, v VPN) {
	if pt.rev != nil {
		pt.rev.add(f, v)
	}
}

// unindex drops v's mapping of f from the reverse index, once it exists.
func (pt *PageTable) unindex(f FrameID, v VPN) {
	if pt.rev != nil && pt.rev.byFrame != nil {
		pt.rev.remove(f, v)
	}
}

// add records that v maps f: in the filter, and in the index once it
// exists.
func (x *frameIndex) add(f FrameID, v VPN) {
	x.mark(f)
	if x.byFrame == nil {
		return
	}
	ref, ok := x.byFrame[f]
	switch {
	case !ok:
		x.byFrame[f] = frameRef{single: v}
	case ref.multi != nil:
		ref.multi[v] = struct{}{}
	case ref.single != v:
		ref.multi = map[VPN]struct{}{ref.single: {}, v: {}}
		x.byFrame[f] = ref
	}
}

// remove drops v's mapping of f from the index. The filter keeps f's bit.
func (x *frameIndex) remove(f FrameID, v VPN) {
	ref, ok := x.byFrame[f]
	if !ok {
		return
	}
	if ref.multi == nil {
		if ref.single == v {
			delete(x.byFrame, f)
		}
		return
	}
	delete(ref.multi, v)
	if len(ref.multi) == 0 {
		delete(x.byFrame, f)
	}
}

// ASID returns the table's address-space identifier.
func (pt *PageTable) ASID() uint16 { return pt.asid }

// Map installs or replaces the entry for vpn.
func (pt *PageTable) Map(vpn VPN, e PTE) {
	if vpn >= VPN(len(pt.dense)) && vpn < VPN(pt.span) {
		pt.growDense(vpn)
	}
	if vpn < VPN(len(pt.dense)) {
		d := &pt.dense[vpn]
		if d.present {
			if d.frame != e.Frame {
				pt.unindex(d.frame, vpn)
				pt.index(e.Frame, vpn)
			}
		} else {
			pt.n++
			pt.index(e.Frame, vpn)
			pt.top = max(pt.top, int32(vpn)+1)
		}
		d.frame, d.perms, d.user, d.present = e.Frame, e.Perms, e.User, true
		return
	}
	if old, ok := pt.sparse[vpn]; ok {
		if old.Frame != e.Frame {
			pt.unindex(old.Frame, vpn)
			pt.index(e.Frame, vpn)
		}
	} else {
		pt.n++
		pt.index(e.Frame, vpn)
	}
	if pt.sparse == nil {
		pt.sparse = make(map[VPN]PTE)
	}
	pt.sparse[vpn] = e
}

// Unmap removes the entry for vpn; removing a missing entry is a no-op.
func (pt *PageTable) Unmap(vpn VPN) {
	if vpn < VPN(len(pt.dense)) {
		d := &pt.dense[vpn]
		if d.present {
			pt.unindex(d.frame, vpn)
			*d = densePTE{}
			pt.n--
		}
		return
	}
	if e, ok := pt.sparse[vpn]; ok {
		delete(pt.sparse, vpn)
		pt.unindex(e.Frame, vpn)
		pt.n--
	}
}

// Lookup returns the entry for vpn.
func (pt *PageTable) Lookup(vpn VPN) (PTE, bool) {
	if vpn < VPN(len(pt.dense)) {
		d := pt.dense[vpn]
		if !d.present {
			return PTE{}, false
		}
		return PTE{Frame: d.frame, Perms: d.perms, User: d.user}, true
	}
	e, ok := pt.sparse[vpn]
	return e, ok
}

// Len returns the number of mapped pages.
func (pt *PageTable) Len() int { return pt.n }

// Each calls fn for every mapping. Iteration order is unspecified; callers
// needing determinism must sort.
func (pt *PageTable) Each(fn func(VPN, PTE)) {
	for v := range pt.top {
		if d := pt.dense[v]; d.present {
			fn(VPN(v), PTE{Frame: d.frame, Perms: d.perms, User: d.user})
		}
	}
	for v, e := range pt.sparse {
		fn(v, e)
	}
}

// FramesMapped returns how many entries reference frame f (used to verify
// revocation: after an unmap-all, the count must be zero).
func (pt *PageTable) FramesMapped(f FrameID) int {
	ref, ok := pt.mappings(f)
	switch {
	case !ok:
		return 0
	case ref.multi == nil:
		return 1
	}
	return len(ref.multi)
}

// UnmapFrame removes every mapping of frame f and returns how many were
// removed. Page flipping and grant revocation use this on every packet, so
// it asks the frame filter and then the reverse index — O(mappings of f),
// not O(table) — and a frame the table never mapped costs a bit test.
func (pt *PageTable) UnmapFrame(f FrameID) int {
	ref, ok := pt.mappings(f)
	if !ok {
		return 0
	}
	n := 1
	if ref.multi == nil {
		pt.removeMapping(ref.single)
	} else {
		n = len(ref.multi)
		for v := range ref.multi {
			pt.removeMapping(v)
		}
	}
	delete(pt.rev.byFrame, f)
	return n
}

// UnmapFrames removes every mapping of every frame in fs and returns how
// many were removed. It clears them in one pass over the table and never
// builds the frame filter or the reverse index (it keeps the index current
// if it exists), so a table that is only ever unmapped in batches
// (ballooning) never pays for them. The pass tests each entry against fs
// linearly, which suits the small batches ballooning hands it.
func (pt *PageTable) UnmapFrames(fs []FrameID) int {
	if len(fs) == 0 {
		return 0
	}
	lo, hi := fs[0], fs[0]
	for _, f := range fs[1:] {
		lo, hi = min(lo, f), max(hi, f)
	}
	hit := func(f FrameID) bool { return f >= lo && f <= hi && slices.Contains(fs, f) }
	n := 0
	for v := range pt.top {
		if d := &pt.dense[v]; d.present && hit(d.frame) {
			pt.unindex(d.frame, VPN(v))
			*d = densePTE{}
			n++
		}
	}
	for v, e := range pt.sparse {
		if hit(e.Frame) {
			pt.unindex(e.Frame, v)
			delete(pt.sparse, v)
			n++
		}
	}
	pt.n -= n
	return n
}

// removeMapping deletes the forward entry for vpn without touching the
// reverse index (UnmapFrame clears the whole slot itself).
func (pt *PageTable) removeMapping(vpn VPN) {
	if vpn < VPN(len(pt.dense)) {
		if pt.dense[vpn].present {
			pt.dense[vpn] = densePTE{}
			pt.n--
		}
		return
	}
	if _, ok := pt.sparse[vpn]; ok {
		delete(pt.sparse, vpn)
		pt.n--
	}
}

// String summarises the table for debugging output.
func (pt *PageTable) String() string {
	return fmt.Sprintf("pt(asid=%d, %d entries)", pt.asid, pt.n)
}
