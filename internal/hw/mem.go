package hw

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"vmmk/internal/trace"
)

// FrameID names one physical page frame. Frame 0 is valid.
type FrameID uint32

// NoFrame is the sentinel for "no frame".
const NoFrame FrameID = ^FrameID(0)

// ErrOutOfMemory is returned when the frame allocator is exhausted.
var ErrOutOfMemory = errors.New("hw: out of physical frames")

// PhysMem is the machine's physical memory: a frame allocator plus frame
// contents, ownership and the machine-to-phys (M2P) table. Ownership is
// bookkeeping for the experiments (page flipping literally transfers
// ownership between domains; the E1 analysis attributes flips to owners);
// the kernels enforce their own policy on top.
//
// Owners are the trace.Comp handles of the components holding the frames,
// so ownership checks are integer compares; trace.CompNone marks a free
// frame. A handle is only meaningful against the Registry of the recorder
// it was interned in, which in practice is the Machine's own.
//
// Per-frame state costs what a machine uses, not what it installs. Frames
// are handed out from below a watermark, which starts at frame 0: Alloc
// pops the LIFO of freed frames, or else hands out the watermark frame and
// advances the watermark. Those are the IDs a stack of every free frame,
// built in descending order, would hand out, because such a stack always
// holds the untouched frames in descending order beneath the freed ones.
// AllocN takes the same IDs in one pass: the freed frames it needs off the
// stack, then one run from the watermark. Frames at or past the watermark
// are free, unowned and read zero. Each frame below it has a record in the
// frame table: its owner, its M2P word and its contents slot, 12 bytes
// and no pointer, so the garbage collector never scans the table. The
// table grows in steps as the watermark advances, and the free stack grows
// to its length when a Free first needs room, so a boot allocates nothing
// per frame, a machine that never frees has no free stack, and Reset walks
// only the frames handed out since the last one. A pooled machine's Reset
// memory is resized to the next machine's frame count and page size, and
// keeps its table, so a recycled memory's table may be longer than its
// frame count: it keeps the longest table it has grown.
//
// The M2P word is Xen's machine-to-phys entry, kept where Xen keeps it,
// beside the frame's owner: 1 + the guest page a hypervisor's P2M maps to
// the frame, or 0. The hypervisor sets and clears it (SetM2P) and looks it
// up (M2P); only an owned frame carries one. Free and Reset clear it,
// Transfer keeps it, and a hypervisor booted on a Reset machine starts
// from an empty M2P in the table the machine already has.
//
// Contents are stored as prefixes. A frame keeps only the bytes up to the
// furthest one written since it was last freed, and everything past them
// reads as zero, so a guest that stores one byte into a page costs the
// host a few dozen bytes, not a page. A write of zero bytes only that
// starts at or past the prefix's end stores nothing: those bytes read zero
// already. So a prefix may end before the last write did, and only a
// nonzero byte, or a write that starts inside the prefix, extends it. A
// frame's buffer lives in bufs, at the slot its record names: the frame
// takes a slot at the first write that stores a byte and keeps it, so bufs
// holds one entry per frame ever written. Free and Reset truncate the
// prefix and keep the slot and its buffer for the frame's next writer; an
// empty prefix is what a zero page is. A frame's first write allocates a
// buffer of its own length (at least minPrefix bytes), and any later
// growth past it allocates the whole page. Growth inside a buffer zeroes
// only the bytes it adds. The simulated costs never depend on a prefix's
// length.
type PhysMem struct {
	pageSize uint64
	frames   int
	next     int        // the watermark: frames at or past it have never been handed out
	table    []frameRec // the frame table, at least next records long
	bufs     [][]byte   // contents buffers, named by the records' slots: the written prefix
	free     []FrameID  // freed frames below the watermark, LIFO
	allocs   uint64
	flips    uint64
}

// frameRec is one frame's record in the frame table.
type frameRec struct {
	owner trace.Comp // CompNone = free
	m2p   uint32     // 1 + the guest page a P2M maps to the frame; 0 = none
	slot  uint32     // 1 + the index of the frame's buffer in bufs; 0 = never written
}

// NewPhysMem returns a memory of frames pages of pageSize bytes each. It
// allocates no per-frame state: that comes with the frames handed out. A
// memory of more than 1<<FrameBits frames is past the physical address
// width a page table can map, and panics.
func NewPhysMem(frames int, pageSize uint64) *PhysMem {
	checkGeometry(frames, pageSize)
	return &PhysMem{pageSize: pageSize, frames: frames}
}

// checkGeometry panics on a memory no machine can have.
func checkGeometry(frames int, pageSize uint64) {
	if frames <= 0 || pageSize == 0 {
		panic("hw: invalid physical memory geometry")
	}
	if frames > 1<<FrameBits {
		panic(fmt.Sprintf("hw: %d frames are past the %d-bit physical address width", frames, FrameBits))
	}
}

// resize gives a Reset memory the geometry NewPhysMem(frames, pageSize)
// would: the pool's re-target of a recycled machine. It keeps the frame
// table, the free stack's capacity and the contents buffers, so the table
// may now be longer than the frame count. Its records past the count are
// held to the rule for every record at or past the watermark: unowned,
// with no M2P word and no prefix. It panics on a memory in use (a
// watermark past frame 0) and on a geometry NewPhysMem refuses.
func (m *PhysMem) resize(frames int, pageSize uint64) {
	if m.next != 0 {
		panic("hw: resizing a memory in use")
	}
	checkGeometry(frames, pageSize)
	m.frames, m.pageSize = frames, pageSize
}

// extendStep is the fewest frames the frame table grows by.
const extendStep = 256

// extend grows the frame table to cover frame f: to max(twice its length,
// f+1, extendStep) records, capped at the frame count, so a machine that
// touches its frames one by one reallocates it O(log frames) times.
func (m *PhysMem) extend(f FrameID) {
	n := min(max(2*len(m.table), int(f)+1, extendStep), m.frames)
	table := make([]frameRec, n)
	copy(table, m.table)
	m.table = table
}

// PageSize returns the frame size in bytes.
func (m *PhysMem) PageSize() uint64 { return m.pageSize }

// TotalFrames returns the number of frames in the machine.
func (m *PhysMem) TotalFrames() int { return m.frames }

// FreeFrames returns the number of unallocated frames: the freed ones and
// those at or past the watermark.
func (m *PhysMem) FreeFrames() int { return len(m.free) + m.frames - m.next }

// Alloc takes a frame for owner. It returns ErrOutOfMemory when exhausted.
// The owner must be an interned component, not CompNone: a frame owned by
// nobody is a free frame.
func (m *PhysMem) Alloc(owner trace.Comp) (FrameID, error) {
	if owner == trace.CompNone {
		panic("hw: allocating a frame to no owner")
	}
	var f FrameID
	if n := len(m.free); n > 0 {
		f = m.free[n-1]
		m.free = m.free[:n-1]
	} else if m.next < m.frames {
		f = FrameID(m.next)
		if m.next == len(m.table) {
			m.extend(f)
		}
		m.next++
	} else {
		return NoFrame, ErrOutOfMemory
	}
	m.table[f].owner = owner
	m.allocs++
	return f, nil
}

// AllocN allocates n frames for owner, or fails atomically. It hands out
// the frame IDs n Alloc calls would, in one pass: the freed frames it
// needs, popped in LIFO order, then one run from the watermark, for which
// the frame table grows in the steps Alloc's would.
func (m *PhysMem) AllocN(owner trace.Comp, n int) ([]FrameID, error) {
	if owner == trace.CompNone {
		panic("hw: allocating a frame to no owner")
	}
	if n > m.FreeFrames() {
		return nil, ErrOutOfMemory
	}
	out := make([]FrameID, n)
	k := min(n, len(m.free))
	for i := range k {
		out[i] = m.free[len(m.free)-1-i]
	}
	m.free = m.free[:len(m.free)-k]
	for len(m.table) < m.next+n-k {
		m.extend(FrameID(len(m.table)))
	}
	for i := k; i < n; i++ {
		out[i] = FrameID(m.next)
		m.next++
	}
	for _, f := range out {
		m.table[f].owner = owner
	}
	m.allocs += uint64(n)
	return out, nil
}

// Free returns a frame to the allocator and clears its owner and its M2P
// word. Its contents read as zero from now on: the prefix is truncated,
// not cleared, and its buffer stays with the frame. A frame that was never
// written costs no write at all.
func (m *PhysMem) Free(f FrameID) {
	m.checkFrame(f)
	if m.Owner(f) == trace.CompNone {
		panic(fmt.Sprintf("hw: double free of frame %d", f))
	}
	r := &m.table[f]
	r.owner, r.m2p = trace.CompNone, 0
	m.truncate(r.slot)
	if len(m.free) == cap(m.free) {
		// Only frames below the watermark are ever freed, so the frame
		// table's length, or the frame count where a resize left the
		// table longer, bounds the stack until the table grows.
		m.free = slices.Grow(m.free, min(len(m.table), m.frames)-len(m.free))
	}
	m.free = append(m.free, f)
}

// truncate empties the prefix in contents slot s, keeping its buffer. Slot
// 0, a frame never written, and an empty prefix cost no write.
func (m *PhysMem) truncate(s uint32) {
	if s != 0 {
		if b := &m.bufs[s-1]; len(*b) != 0 {
			*b = (*b)[:0]
		}
	}
}

// Reset restores the memory to its post-NewPhysMem state: every frame free
// and unowned and reading zero, no M2P word set, statistics cleared, the
// free stack empty and the watermark back at frame 0, so a reused machine
// allocates the same frame IDs as a fresh one. It walks only the records
// below the watermark, the frames handed out since the last Reset,
// truncating the owned ones' prefixes; it keeps their buffers, the frame
// table and the free stack's capacity.
func (m *PhysMem) Reset() {
	for i := range m.table[:m.next] {
		r := &m.table[i]
		if r.owner != trace.CompNone {
			m.truncate(r.slot)
		}
		r.owner, r.m2p = trace.CompNone, 0
	}
	m.free = m.free[:0]
	m.next = 0
	m.allocs, m.flips = 0, 0
}

// Owner returns the bookkeeping owner of f (CompNone if free). It is the
// ownership check on every page-table update and packet, so it stays
// inlinable: a frame at or past the watermark is free if it exists at
// all. The watermark, not the table's length, bounds the fast path,
// because a resized memory's table may reach past its frame count.
func (m *PhysMem) Owner(f FrameID) trace.Comp {
	if int(f) < m.next {
		return m.table[f].owner
	}
	if int(f) >= m.frames {
		panic("hw: owner of an out-of-range frame")
	}
	return trace.CompNone
}

// M2P returns the guest page f's M2P word names, or -1 when it names none,
// as for every free frame. A frame past the frame table, or past the
// machine, names none either.
func (m *PhysMem) M2P(f FrameID) int {
	if int(f) < len(m.table) {
		return int(m.table[f].m2p) - 1
	}
	return -1
}

// SetM2P records in f's M2P word that a P2M maps guest page gpn to f, or
// clears the word when gpn is negative. Only an owned frame backs a guest
// page, so it panics if f is free.
func (m *PhysMem) SetM2P(f FrameID, gpn int) {
	if m.Owner(f) == trace.CompNone {
		panic(fmt.Sprintf("hw: M2P entry for free frame %d", f))
	}
	m.table[f].m2p = uint32(max(gpn, -1) + 1)
}

// Transfer reassigns ownership of f to newOwner, modelling a page flip. It
// panics if the frame is free: flipping an unowned page is a kernel bug.
// The M2P word stays: the hypervisor moves it with the P2M slots.
func (m *PhysMem) Transfer(f FrameID, newOwner trace.Comp) {
	m.checkFrame(f)
	if m.Owner(f) == trace.CompNone {
		panic(fmt.Sprintf("hw: transferring free frame %d", f))
	}
	if newOwner == trace.CompNone {
		panic(fmt.Sprintf("hw: transferring frame %d to no owner", f))
	}
	m.table[f].owner = newOwner
	m.flips++
}

// minPrefix is the smallest buffer a frame's first write allocates. Most
// writers store a few bytes (a dirtied byte, a small packet), and later
// growth jumps straight to a whole page, so a recycled frame regrows at
// most once.
const minPrefix = 64

// grow extends f's prefix to end bytes and returns it. The caller
// overwrites bytes from off onward, so only the bytes between the old
// prefix's end and off are cleared; a new buffer arrives zeroed. A frame's
// first buffer is the write's own length (at least minPrefix bytes), and
// any later one the whole page. f must lie within the frame table; a
// frame without a contents slot takes the next one.
func (m *PhysMem) grow(f FrameID, off, end int) []byte {
	r := &m.table[f]
	if r.slot == 0 {
		m.bufs = append(m.bufs, nil)
		r.slot = uint32(len(m.bufs))
	}
	b := &m.bufs[r.slot-1]
	p := *b
	if end <= cap(p) {
		q := p[:end]
		if off > len(p) {
			clear(q[len(p):off])
		}
		*b = q
		return q
	}
	size := int(m.pageSize)
	if cap(p) == 0 {
		size = min(max(end, minPrefix), size)
	}
	q := make([]byte, end, size)
	copy(q, p)
	*b = q
	return q
}

// prefix returns f's written prefix, empty for a frame without a contents
// slot. f must be in range.
func (m *PhysMem) prefix(f FrameID) []byte {
	if int(f) < len(m.table) {
		if s := m.table[f].slot; s != 0 {
			return m.bufs[s-1]
		}
	}
	return nil
}

// span checks a byte range's start against the page and returns how many
// of n bytes from off fit before the page end.
func (m *PhysMem) span(f FrameID, off, n int) int {
	m.checkFrame(f)
	if off < 0 || off > int(m.pageSize) {
		panic(fmt.Sprintf("hw: offset %d outside a %d-byte page", off, m.pageSize))
	}
	return min(n, int(m.pageSize)-off)
}

// zeros is a page of zero bytes for every Arch page size: the reference
// the zero check compares against, and the bytes View hands out for a
// frame that reads zero. Nothing ever writes it.
var zeros [1 << 16]byte

// isZero reports whether b holds only zero bytes. It compares whole chunks
// against zeros, which stops at the first chunk holding a nonzero byte,
// and tests each chunk's first byte before, which settles most written
// data at once.
func isZero(b []byte) bool {
	for len(b) > 0 {
		k := min(len(b), len(zeros))
		if b[0] != 0 || !bytes.Equal(b[:k], zeros[:k]) {
			return false
		}
		b = b[k:]
	}
	return true
}

// Write stores b into f at byte offset off, extending the prefix if b
// ends past it, and returns the number of bytes it covered: b is cut at
// the page end, as copy would cut it. A b of zero bytes only that starts
// at or past the prefix's end stores nothing, since f reads zero there
// already. An offset past the page end panics. A write that stores bytes
// into a frame past the frame table extends it.
func (m *PhysMem) Write(f FrameID, off int, b []byte) int {
	n := m.span(f, off, len(b))
	if n == 0 {
		return 0
	}
	p := m.prefix(f)
	if end := off + n; end > len(p) {
		if off >= len(p) && isZero(b[:n]) {
			return n
		}
		if int(f) >= len(m.table) {
			m.extend(f)
		}
		p = m.grow(f, off, end)
	}
	return copy(p[off:], b[:n])
}

// Read fills b with f's bytes from offset off, zeros past the prefix, and
// returns the number of bytes filled: b is cut at the page end, as copy
// would cut it. An offset past the page end panics.
func (m *PhysMem) Read(f FrameID, off int, b []byte) int {
	n := m.span(f, off, len(b))
	k := 0
	if p := m.prefix(f); off < len(p) {
		k = copy(b[:n], p[off:])
	}
	clear(b[k:n])
	return n
}

// Load makes f's contents b followed by zeros, whatever f held before. A
// b longer than a page is cut at the page end. Loading an empty b zeroes
// the frame without allocating.
func (m *PhysMem) Load(f FrameID, b []byte) {
	m.checkFrame(f)
	if int(f) < len(m.table) {
		m.truncate(m.table[f].slot)
	}
	m.Write(f, 0, b)
}

// Bytes returns f's prefix: its contents without the zero tail, possibly
// empty. The prefix may end before the last write did, when that write's
// tail was zeros (see Write), so a caller that needs n bytes uses View.
// The slice is a read-only view, valid until f is next written, loaded or
// freed.
func (m *PhysMem) Bytes(f FrameID) []byte {
	m.checkFrame(f)
	p := m.prefix(f)
	return p[:len(p):len(p)]
}

// View returns f's first n bytes, zero tail included, as a read-only
// slice, valid until f is next written, loaded or freed: the prefix cut at
// n when it reaches n, shared zero bytes when f reads zero, and otherwise
// a copy.
func (m *PhysMem) View(f FrameID, n int) []byte {
	p := m.Bytes(f)
	switch {
	case n <= len(p):
		return p[:n:n]
	case len(p) == 0 && n <= len(zeros):
		return zeros[:n:n]
	}
	b := make([]byte, n)
	copy(b, p)
	return b
}

// Copy copies the first min(n, pageSize) bytes of src over dst and returns
// the number of bytes copied. Only src's prefix moves; the rest of the
// range reads zero in dst.
func (m *PhysMem) Copy(dst, src FrameID, n uint64) uint64 {
	m.checkFrame(dst)
	m.checkFrame(src)
	n = min(n, m.pageSize)
	sp := m.prefix(src)
	k := min(int(n), len(sp))
	if dp := m.prefix(dst); int(n) < len(dp) {
		copy(dp, sp[:k])
		clear(dp[k:n])
	} else {
		m.Load(dst, sp[:k])
	}
	return n
}

// CopyPage overwrites frame df with the contents of frame sf in src, which
// may be m itself or another machine's memory of the same page size. Only
// the source's prefix moves: a source that reads zero costs neither an
// allocation nor a copy, and leaves df reading zero.
func (m *PhysMem) CopyPage(df FrameID, src *PhysMem, sf FrameID) {
	src.checkFrame(sf)
	if src.pageSize != m.pageSize {
		panic(fmt.Sprintf("hw: page copy between %d- and %d-byte pages", src.pageSize, m.pageSize))
	}
	m.Load(df, src.prefix(sf))
}

// Stats returns cumulative allocation and ownership-transfer counts.
func (m *PhysMem) Stats() (allocs, transfers uint64) { return m.allocs, m.flips }

// OwnedBy returns the number of frames currently owned by owner, counted
// by a scan of the frame table below the watermark. Only tests call it; a
// kernel keeps its own resident count.
func (m *PhysMem) OwnedBy(owner trace.Comp) int {
	n := 0
	if owner != trace.CompNone {
		for _, r := range m.table[:m.next] {
			if r.owner == owner {
				n++
			}
		}
	}
	return n
}

// Audit checks the allocator's conservation laws. Below the watermark,
// every frame is either owned or on the free stack, exactly once, and the
// free stack holds no other frame. At or past it, no frame is owned or
// holds a prefix. So free plus owned frames equal the total. No prefix
// outgrows its page, and every free frame's prefix is empty, so it reads
// zero. No free frame, and no frame at or past the watermark, carries an
// M2P word. A resized memory's frame table may be longer than its frame
// count, and the records past the count are held to the rules for those
// at or past the watermark. Every contents slot a record names is in range
// and named by that record only, and every buffer in bufs has its frame.
// Audit allocates in proportion to the frame table and bufs, not to the
// frames installed. It is a test oracle and never runs on the simulation
// path.
func (m *PhysMem) Audit() error {
	if m.next > len(m.table) || m.next > m.frames {
		return fmt.Errorf("hw: %d frame records for a watermark at %d of %d frames", len(m.table), m.next, m.frames)
	}
	onStack := make([]bool, m.next)
	for _, f := range m.free {
		if int(f) >= m.next {
			return fmt.Errorf("hw: free stack holds untouched frame %d (watermark %d)", f, m.next)
		}
		if onStack[f] {
			return fmt.Errorf("hw: frame %d is on the free stack twice", f)
		}
		onStack[f] = true
		if o := m.table[f].owner; o != trace.CompNone {
			return fmt.Errorf("hw: free-stack frame %d is owned by component %d", f, o)
		}
	}
	named := make([]bool, len(m.bufs))
	for f, r := range m.table {
		n := 0
		if r.slot != 0 {
			s := int(r.slot) - 1
			if s >= len(m.bufs) {
				return fmt.Errorf("hw: frame %d names contents slot %d of %d", f, s, len(m.bufs))
			}
			if named[s] {
				return fmt.Errorf("hw: frame %d names contents slot %d, which another frame holds", f, s)
			}
			named[s] = true
			n = len(m.bufs[s])
		}
		if uint64(n) > m.pageSize {
			return fmt.Errorf("hw: frame %d holds a %d-byte prefix in a %d-byte page", f, n, m.pageSize)
		}
		if f >= m.next {
			if r.owner != trace.CompNone {
				return fmt.Errorf("hw: untouched frame %d (watermark %d) is owned by component %d", f, m.next, r.owner)
			}
			if r.m2p != 0 {
				return fmt.Errorf("hw: untouched frame %d (watermark %d) carries M2P word %d", f, m.next, r.m2p)
			}
			if n != 0 {
				return fmt.Errorf("hw: untouched frame %d holds a %d-byte prefix", f, n)
			}
			continue
		}
		if r.owner == trace.CompNone {
			if !onStack[f] {
				return fmt.Errorf("hw: frame %d is neither owned nor free", f)
			}
			if r.m2p != 0 {
				return fmt.Errorf("hw: free frame %d carries M2P word %d", f, r.m2p)
			}
			if n != 0 {
				return fmt.Errorf("hw: free frame %d holds a %d-byte prefix", f, n)
			}
		}
	}
	for s, ok := range named {
		if !ok {
			return fmt.Errorf("hw: contents slot %d belongs to no frame", s)
		}
	}
	return nil
}

func (m *PhysMem) checkFrame(f FrameID) {
	if int(f) >= m.frames {
		panic(fmt.Sprintf("hw: frame %d out of range (%d frames)", f, m.frames))
	}
}
