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
// contents and ownership. Ownership is bookkeeping for the experiments
// (page flipping literally transfers ownership between domains; the E1
// analysis attributes flips to owners); the kernels enforce their own
// policy on top.
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
// Frames at or past the watermark are free, unowned and read zero. The
// per-frame slices grow in steps as the watermark advances, and the free
// stack grows to their length when a Free first needs room, so a boot
// allocates nothing per frame, a machine that never frees has no free
// stack, and Reset walks only the frames handed out since the last one.
//
// Contents are stored as prefixes. A frame keeps only the bytes up to the
// furthest one written since it was last freed, and everything past them
// reads as zero, so a guest that stores one byte into a page costs the
// host a few dozen bytes, not a page. A write of zero bytes only that
// starts at or past the prefix's end stores nothing: those bytes read zero
// already. So a prefix may end before the last write did, and only a
// nonzero byte, or a write that starts inside the prefix, extends it. Free
// and Reset truncate the prefix and keep its buffer for the frame's next
// writer; an empty prefix is what a zero page is. A frame's first write
// allocates a buffer of its own length (at least minPrefix bytes), and any
// later growth past it allocates the whole page. Growth inside a buffer
// zeroes only the bytes it adds. The simulated costs never depend on a
// prefix's length.
type PhysMem struct {
	pageSize uint64
	frames   int
	next     int          // the watermark: frames at or past it have never been handed out
	data     [][]byte     // frame contents: the written prefix; the rest reads zero
	owner    []trace.Comp // CompNone = free; as long as data
	owned    []int        // frames held per owner, indexed by Comp
	free     []FrameID    // freed frames below the watermark, LIFO
	allocs   uint64
	flips    uint64
}

// NewPhysMem returns a memory of frames pages of pageSize bytes each. It
// allocates no per-frame state: that comes with the frames handed out.
func NewPhysMem(frames int, pageSize uint64) *PhysMem {
	if frames <= 0 || pageSize == 0 {
		panic("hw: invalid physical memory geometry")
	}
	if uint64(frames) > uint64(NoFrame) {
		panic(fmt.Sprintf("hw: %d frames would reach frame ID NoFrame", frames))
	}
	return &PhysMem{pageSize: pageSize, frames: frames}
}

// extendStep is the fewest frames the per-frame slices grow by.
const extendStep = 256

// extend grows the per-frame slices to cover frame f: to max(twice their
// length, f+1, extendStep) entries, capped at the frame count, so a machine
// that touches its frames one by one reallocates them O(log frames) times.
func (m *PhysMem) extend(f FrameID) {
	n := min(max(2*len(m.owner), int(f)+1, extendStep), m.frames)
	data := make([][]byte, n)
	copy(data, m.data)
	owner := make([]trace.Comp, n)
	copy(owner, m.owner)
	m.data, m.owner = data, owner
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
		if m.next == len(m.owner) {
			m.extend(f)
		}
		m.next++
	} else {
		return NoFrame, ErrOutOfMemory
	}
	m.own(f, owner)
	m.allocs++
	return f, nil
}

// AllocN allocates n frames for owner, or fails atomically.
func (m *PhysMem) AllocN(owner trace.Comp, n int) ([]FrameID, error) {
	if n > m.FreeFrames() {
		return nil, ErrOutOfMemory
	}
	out := make([]FrameID, n)
	for i := range out {
		f, err := m.Alloc(owner)
		if err != nil { // cannot happen after the length check
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// own records f as held by owner, growing the per-owner counts on demand.
func (m *PhysMem) own(f FrameID, owner trace.Comp) {
	if int(owner) >= len(m.owned) {
		m.owned = append(m.owned, make([]int, int(owner)+1-len(m.owned))...)
	}
	m.owner[f] = owner
	m.owned[owner]++
}

// Free returns a frame to the allocator and clears its owner. Its contents
// read as zero from now on: the prefix is truncated, not cleared, and its
// buffer stays with the frame. A frame that was never written costs no
// write at all.
func (m *PhysMem) Free(f FrameID) {
	m.checkFrame(f)
	o := m.Owner(f)
	if o == trace.CompNone {
		panic(fmt.Sprintf("hw: double free of frame %d", f))
	}
	m.owned[o]--
	m.owner[f] = trace.CompNone
	if len(m.data[f]) != 0 {
		m.data[f] = m.data[f][:0]
	}
	if len(m.free) == cap(m.free) {
		// Only frames below the watermark are ever freed, so the
		// per-frame slices' length bounds the stack until they grow.
		m.free = slices.Grow(m.free, len(m.owner)-len(m.free))
	}
	m.free = append(m.free, f)
}

// Reset restores the memory to its post-NewPhysMem state: every frame free
// and unowned and reading zero, statistics cleared, the free stack empty
// and the watermark back at frame 0, so a reused machine allocates the same
// frame IDs as a fresh one. It walks only the frames below the watermark,
// the ones handed out since the last Reset, truncating the owned ones'
// prefixes; it keeps their buffers, the per-frame slices and the free
// stack's capacity.
func (m *PhysMem) Reset() {
	for f, o := range m.owner[:m.next] {
		if o != trace.CompNone {
			m.owner[f] = trace.CompNone
			m.data[f] = m.data[f][:0]
		}
	}
	clear(m.owned)
	m.free = m.free[:0]
	m.next = 0
	m.allocs, m.flips = 0, 0
}

// Owner returns the bookkeeping owner of f (CompNone if free). It is the
// ownership check on every page-table update and packet, so it stays
// inlinable: a frame past the per-frame slices is free if it exists at all.
func (m *PhysMem) Owner(f FrameID) trace.Comp {
	if int(f) < len(m.owner) {
		return m.owner[f]
	}
	if int(f) >= m.frames {
		panic("hw: owner of an out-of-range frame")
	}
	return trace.CompNone
}

// Transfer reassigns ownership of f to newOwner, modelling a page flip. It
// panics if the frame is free: flipping an unowned page is a kernel bug.
func (m *PhysMem) Transfer(f FrameID, newOwner trace.Comp) {
	m.checkFrame(f)
	o := m.Owner(f)
	if o == trace.CompNone {
		panic(fmt.Sprintf("hw: transferring free frame %d", f))
	}
	if newOwner == trace.CompNone {
		panic(fmt.Sprintf("hw: transferring frame %d to no owner", f))
	}
	m.owned[o]--
	m.own(f, newOwner)
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
// any later one the whole page. f must lie within the per-frame slices.
func (m *PhysMem) grow(f FrameID, off, end int) []byte {
	p := m.data[f]
	if end <= cap(p) {
		q := p[:end]
		if off > len(p) {
			clear(q[len(p):off])
		}
		m.data[f] = q
		return q
	}
	size := int(m.pageSize)
	if cap(p) == 0 {
		size = min(max(end, minPrefix), size)
	}
	q := make([]byte, end, size)
	copy(q, p)
	m.data[f] = q
	return q
}

// prefix returns f's written prefix, empty for a frame past the per-frame
// slices. f must be in range.
func (m *PhysMem) prefix(f FrameID) []byte {
	if int(f) < len(m.data) {
		return m.data[f]
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
// into a frame past the per-frame slices extends them.
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
		if int(f) >= len(m.data) {
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
	if len(m.prefix(f)) != 0 {
		m.data[f] = m.data[f][:0]
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

// OwnedBy returns the number of frames currently owned by owner.
func (m *PhysMem) OwnedBy(owner trace.Comp) int {
	if owner <= trace.CompNone || int(owner) >= len(m.owned) {
		return 0
	}
	return m.owned[owner]
}

// Audit checks the allocator's conservation laws. Below the watermark,
// every frame is either owned or on the free stack, exactly once, and the
// free stack holds no other frame. At or past it, no frame is owned or
// holds a prefix. So free plus owned frames equal the total. Each
// per-owner count equals a scan of the owners, no prefix outgrows its
// page, and every free frame's prefix is empty, so it reads zero. Audit
// allocates in proportion to the watermark, not to the frames installed.
// It is a test oracle and never runs on the simulation path.
func (m *PhysMem) Audit() error {
	if len(m.data) != len(m.owner) || m.next > len(m.owner) || len(m.owner) > m.frames {
		return fmt.Errorf("hw: %d contents and %d owners for a watermark at %d of %d frames", len(m.data), len(m.owner), m.next, m.frames)
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
		if o := m.owner[f]; o != trace.CompNone {
			return fmt.Errorf("hw: free-stack frame %d is owned by component %d", f, o)
		}
	}
	owned := make([]int, len(m.owned))
	for f, o := range m.owner {
		n := len(m.data[f])
		if uint64(n) > m.pageSize {
			return fmt.Errorf("hw: frame %d holds a %d-byte prefix in a %d-byte page", f, n, m.pageSize)
		}
		if f >= m.next {
			if o != trace.CompNone {
				return fmt.Errorf("hw: untouched frame %d (watermark %d) is owned by component %d", f, m.next, o)
			}
			if n != 0 {
				return fmt.Errorf("hw: untouched frame %d holds a %d-byte prefix", f, n)
			}
			continue
		}
		if o == trace.CompNone {
			if !onStack[f] {
				return fmt.Errorf("hw: frame %d is neither owned nor free", f)
			}
			if n != 0 {
				return fmt.Errorf("hw: free frame %d holds a %d-byte prefix", f, n)
			}
			continue
		}
		if o < 0 || int(o) >= len(owned) {
			return fmt.Errorf("hw: frame %d owned by uncounted component %d", f, o)
		}
		owned[o]++
	}
	for c, n := range owned {
		if n != m.owned[c] {
			return fmt.Errorf("hw: component %d owns %d frames but is counted at %d", c, n, m.owned[c])
		}
	}
	return nil
}

func (m *PhysMem) checkFrame(f FrameID) {
	if int(f) >= m.frames {
		panic(fmt.Sprintf("hw: frame %d out of range (%d frames)", f, m.frames))
	}
}
