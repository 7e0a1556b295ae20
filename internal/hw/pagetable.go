package hw

import (
	"fmt"
	"iter"
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

// FrameBits is the machine's physical-address width, counted in frames: a
// table entry names a frame in FrameBits bits, so a machine has at most
// 1<<FrameBits frames (512 GiB of 4 KiB pages). NewPhysMem refuses a
// larger memory, and Map a frame past it.
const FrameBits = 27

// pte is a PTE as the table stores it, packed in one word so the dense
// region is a flat pointer-free array of 4 bytes a page: the frame in the
// low FrameBits bits, then the present bit, the user bit and the three
// PermRWX bits. The zero pte is an unmapped slot.
type pte uint32

const (
	pteFrame   = 1<<FrameBits - 1
	ptePresent = 1 << FrameBits
	pteUser    = 1 << (FrameBits + 1)
	ptePerms   = FrameBits + 2 // the shift of the PermRWX bits
)

// packPTE packs e. A frame past the physical-address width, or a
// permission bit outside PermRWX, is no entry the MMU can hold: it panics
// rather than truncate the field.
func packPTE(e PTE) pte {
	if e.Frame > pteFrame {
		panic(fmt.Sprintf("hw: frame %d is past the %d-bit physical address width", e.Frame, FrameBits))
	}
	if e.Perms&^PermRWX != 0 {
		panic(fmt.Sprintf("hw: permission bits %#x outside PermRWX", uint8(e.Perms)))
	}
	p := pte(e.Frame) | ptePresent | pte(e.Perms)<<ptePerms
	if e.User {
		p |= pteUser
	}
	return p
}

// frame returns the frame p maps.
func (p pte) frame() FrameID { return FrameID(p & pteFrame) }

// unpack returns p as a PTE; the zero pte unpacks to the zero PTE.
func (p pte) unpack() PTE {
	return PTE{Frame: p.frame(), Perms: Perm(p >> ptePerms), User: p&pteUser != 0}
}

// PageTable is a single-space page table. The simulated depth
// (Arch.PTLevels) affects only walk cost, not the data structure.
//
// Layout: domains and spaces map their pages densely from VPN 0 (identity
// maps, process images), so the low VPN range, up to the table's span,
// lives in a flat array of packed entries, 4 bytes a page — constant-time,
// allocation-free, hash-free. The occasional high mapping (pager and grant
// windows at 0x1000+) overflows into a map. Map/Lookup dispatch on the VPN
// alone, so the split is invisible to callers. A sized table allocates the
// entries its caller said it would map up front; a NewPageTable table
// starts empty. Either grows its array only as Map reaches past it into
// the span, so a space that maps a handful of pages costs a handful of
// entries. A VPN below the span never enters the map, so a VPN past the
// array's current end is simply unmapped.
//
// A table is a value, so a domain or a space and its table are one heap
// object. Its owner keeps it in place and hands out pointers to it: a copy
// would share the array and the map but not the counts.
type PageTable struct {
	dense  []pte       // VPNs in [0, len(dense)); Map grows it up to span
	sparse map[VPN]pte // VPNs >= span; allocated on first use
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
// fault in, at most 1KB of pointer-free memory per space.
const denseDefault = 256

// denseStep is the dense array's first size once Map reaches into an
// unsized table's span; each later growth doubles it, up to the span.
const denseStep = 16

// NewPageTable returns an empty page table tagged with asid. Its dense
// region spans denseDefault VPNs and allocates nothing until Map reaches
// into it.
func NewPageTable(asid uint16) PageTable {
	return PageTable{span: denseDefault, asid: asid}
}

// NewPageTableSized is NewPageTable with a capacity hint for callers that
// know how many pages they are about to map: a domain build maps one entry
// per frame. It allocates hint dense entries at once, because growing them
// incrementally showed up in profiles, but spans hint+64 VPNs: a Map into
// the 64 beyond the hint grows the array as an unsized table's grows, so
// the slack costs nothing until used. A hint <= 0 gives NewPageTable.
func NewPageTableSized(asid uint16, hint int) PageTable {
	if hint <= 0 {
		return NewPageTable(asid)
	}
	return PageTable{dense: make([]pte, hint), span: hint + 64, asid: asid}
}

// growDense grows the dense array to cover vpn, which lies below the span:
// from its current length (at least denseStep entries), doubling, capped at
// the span.
func (pt *PageTable) growDense(vpn VPN) {
	n := max(len(pt.dense), denseStep)
	for VPN(n) <= vpn {
		n *= 2
	}
	d := make([]pte, min(n, pt.span))
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
// lookup, in one pass: one bit per frame up to the highest one mapped, set
// for every frame in the table. From then on Map sets the bit of each
// frame it maps, and nothing clears one. A clear bit proves the frame is
// not mapped, and the lookup answers at once; a set bit sends it to a scan
// of the table.
//
// A filter is built, and grown, to at most as many words as its table has
// entries, so it costs at most 8 bytes a mapping. A table whose frames lie
// too far apart for that, a few entries mapping high frames, has no
// filter: each of its reverse lookups scans its few entries. A Map that
// would grow the filter past the bound drops it, and the next reverse
// lookup builds it again if the bound allows.
type frameFilter struct {
	mapped []uint64 // bit f set for any frame Map may have mapped
}

// filterWords is the words of a filter that reaches frame f.
func filterWords(f FrameID) int { return int(f/64) + 1 }

// mark sets f's bit in the table's filter, growing the filter to reach it,
// or drops the filter when that would take more words than the table has
// entries before the Map that calls it.
func (pt *PageTable) mark(f FrameID) {
	x := pt.filter
	if n := filterWords(f); n > len(x.mapped) {
		if n > pt.n {
			pt.filter = nil
			return
		}
		x.mapped = append(x.mapped, make([]uint64, n-len(x.mapped))...)
	}
	x.mapped[f/64] |= 1 << (f % 64)
}

// mayMap reports whether the table may map f: false proves it does not. A
// table without a filter builds one, sized to the highest frame mapped,
// unless that takes more words than the table has entries; then it
// answers true and its caller scans.
func (pt *PageTable) mayMap(f FrameID) bool {
	if pt.filter == nil {
		hi := FrameID(0)
		for _, e := range pt.All() {
			hi = max(hi, e.Frame)
		}
		n := filterWords(hi)
		if n > pt.n {
			return true
		}
		pt.filter = &frameFilter{mapped: make([]uint64, n)}
		for _, e := range pt.All() {
			pt.filter.mapped[e.Frame/64] |= 1 << (e.Frame % 64)
		}
	}
	w := int(f / 64)
	return w < len(pt.filter.mapped) && pt.filter.mapped[w]&(1<<(f%64)) != 0
}

// ASID returns the table's address-space identifier.
func (pt *PageTable) ASID() uint16 { return pt.asid }

// Map installs or replaces the entry for vpn. It panics on an entry no
// MMU can hold: a frame past the FrameBits-bit physical address width, or
// a permission bit outside PermRWX.
func (pt *PageTable) Map(vpn VPN, e PTE) {
	p := packPTE(e)
	if pt.filter != nil {
		pt.mark(e.Frame)
	}
	if vpn >= VPN(len(pt.dense)) && vpn < VPN(pt.span) {
		pt.growDense(vpn)
	}
	if vpn < VPN(len(pt.dense)) {
		d := &pt.dense[vpn]
		if *d == 0 {
			pt.n++
			pt.top = max(pt.top, int32(vpn)+1)
		}
		*d = p
		return
	}
	if _, ok := pt.sparse[vpn]; !ok {
		pt.n++
	}
	if pt.sparse == nil {
		pt.sparse = make(map[VPN]pte)
	}
	pt.sparse[vpn] = p
}

// Unmap removes the entry for vpn; removing a missing entry is a no-op.
func (pt *PageTable) Unmap(vpn VPN) {
	if vpn < VPN(len(pt.dense)) {
		d := &pt.dense[vpn]
		if *d != 0 {
			*d = 0
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
	var p pte
	if vpn < VPN(len(pt.dense)) {
		p = pt.dense[vpn]
	} else {
		p = pt.sparse[vpn]
	}
	return p.unpack(), p != 0
}

// Len returns the number of mapped pages.
func (pt *PageTable) Len() int { return pt.n }

// All yields every mapping. Iteration order is unspecified; callers
// needing determinism must sort. The caller may replace the entry it is
// handed while iterating.
func (pt *PageTable) All() iter.Seq2[VPN, PTE] {
	return func(yield func(VPN, PTE) bool) {
		for v, p := range pt.dense[:pt.top] {
			if p != 0 && !yield(VPN(v), p.unpack()) {
				return
			}
		}
		for v, p := range pt.sparse {
			if !yield(v, p.unpack()) {
				return
			}
		}
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
		if d := &pt.dense[v]; *d != 0 && d.frame() == f {
			if unmap {
				*d = 0
			}
			n++
		}
	}
	for v, p := range pt.sparse {
		if p.frame() == f {
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
		if d := &pt.dense[v]; *d != 0 && hit(d.frame()) {
			*d = 0
			n++
		}
	}
	for v, p := range pt.sparse {
		if hit(p.frame()) {
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
