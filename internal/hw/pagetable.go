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

	// filter is the reverse lookups' frame filter, nil until the first
	// one (see frameFilter). One pointer keeps the table at 64 bytes.
	filter *frameFilter

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

// frameFilter answers the reverse lookups' first question: might the table
// map frame f? Page flipping and grant revocation revoke by frame, but most
// tables (identity-mapped domains that never flip) never look a frame up,
// and most lookups that do happen ask about a frame the table does not
// map: a flip of a driver buffer that came from the allocator, not from
// the donor's memory, or a guest releasing a flipped frame it never
// mapped. So the filter is built lazily, by the table's first reverse
// lookup, in one pass: one bit per frame, set for every frame in the
// table. From then on Map sets the bit of each frame it maps, and nothing
// clears one. A clear bit proves the frame is not mapped, and the lookup
// answers at once; a set bit sends it to a scan of the table.
type frameFilter struct {
	mapped []uint64 // bit f set for any frame Map may have mapped
}

// mark sets f's bit, growing the filter to reach it.
func (x *frameFilter) mark(f FrameID) {
	w := int(f / 64)
	if w >= len(x.mapped) {
		x.mapped = append(x.mapped, make([]uint64, w+1-len(x.mapped))...)
	}
	x.mapped[w] |= 1 << (f % 64)
}

// mayMap reports whether the table may map f: false proves it does not. It
// builds the filter on the table's first reverse lookup, sized to the
// highest frame mapped.
func (pt *PageTable) mayMap(f FrameID) bool {
	if pt.filter == nil {
		hi := FrameID(0)
		pt.Each(func(_ VPN, e PTE) { hi = max(hi, e.Frame) })
		pt.filter = &frameFilter{mapped: make([]uint64, hi/64+1)}
		pt.Each(func(_ VPN, e PTE) { pt.filter.mark(e.Frame) })
	}
	w := int(f / 64)
	return w < len(pt.filter.mapped) && pt.filter.mapped[w]&(1<<(f%64)) != 0
}

// ASID returns the table's address-space identifier.
func (pt *PageTable) ASID() uint16 { return pt.asid }

// Map installs or replaces the entry for vpn.
func (pt *PageTable) Map(vpn VPN, e PTE) {
	if pt.filter != nil {
		pt.filter.mark(e.Frame)
	}
	if vpn >= VPN(len(pt.dense)) && vpn < VPN(pt.span) {
		pt.growDense(vpn)
	}
	if vpn < VPN(len(pt.dense)) {
		d := &pt.dense[vpn]
		if !d.present {
			pt.n++
			pt.top = max(pt.top, int32(vpn)+1)
		}
		d.frame, d.perms, d.user, d.present = e.Frame, e.Perms, e.User, true
		return
	}
	if _, ok := pt.sparse[vpn]; !ok {
		pt.n++
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
			*d = densePTE{}
			pt.n--
		}
		return
	}
	if _, ok := pt.sparse[vpn]; ok {
		delete(pt.sparse, vpn)
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
func (pt *PageTable) FramesMapped(f FrameID) int { return pt.scanFrame(f, false) }

// UnmapFrame removes every mapping of frame f and returns how many were
// removed. Page flipping and grant revocation use this on every packet,
// and almost every frame they name is one the table never mapped, which
// costs a bit test in the frame filter.
func (pt *PageTable) UnmapFrame(f FrameID) int { return pt.scanFrame(f, true) }

// scanFrame counts the mappings of f, removing them when unmap is set. A
// frame the filter rules out costs a bit test; any other costs one pass
// over the table, which allocates nothing.
func (pt *PageTable) scanFrame(f FrameID, unmap bool) int {
	if !pt.mayMap(f) {
		return 0
	}
	n := 0
	for v := range pt.top {
		if d := &pt.dense[v]; d.present && d.frame == f {
			if unmap {
				*d = densePTE{}
			}
			n++
		}
	}
	for v, e := range pt.sparse {
		if e.Frame == f {
			if unmap {
				delete(pt.sparse, v)
			}
			n++
		}
	}
	if unmap {
		pt.n -= n
	}
	return n
}

// UnmapFrames removes every mapping of every frame in fs and returns how
// many were removed. It clears them in one pass over the table and never
// builds the frame filter, so a table that is only ever unmapped in
// batches (ballooning) never pays for it. The pass tests each entry
// against fs linearly, which suits the small batches ballooning hands it.
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
			*d = densePTE{}
			n++
		}
	}
	for v, e := range pt.sparse {
		if hit(e.Frame) {
			delete(pt.sparse, v)
			n++
		}
	}
	pt.n -= n
	return n
}

// String summarises the table for debugging output.
func (pt *PageTable) String() string {
	return fmt.Sprintf("pt(asid=%d, %d entries)", pt.asid, pt.n)
}
