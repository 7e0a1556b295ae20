package hw

import (
	"errors"
	"fmt"

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
// Contents are scrubbed lazily. A frame's page is allocated on its first
// Data call and kept for the life of the memory. Free and Reset only mark
// a page stale; a stale page reads as all zero, and Data clears it on its
// next touch. So every free frame reads zero (its page is absent, stale or
// already clean), and no page is zeroed unless somebody looks at it again.
type PhysMem struct {
	pageSize uint64
	frames   int
	data     [][]byte     // frame contents, allocated on first Data
	stale    []bool       // data[f] is logically zero; Data clears it
	owner    []trace.Comp // CompNone = free
	owned    []int        // frames held per owner, indexed by Comp
	free     []FrameID
	allocs   uint64
	flips    uint64
}

// NewPhysMem returns a memory of frames pages of pageSize bytes each.
func NewPhysMem(frames int, pageSize uint64) *PhysMem {
	if frames <= 0 || pageSize == 0 {
		panic("hw: invalid physical memory geometry")
	}
	m := &PhysMem{
		pageSize: pageSize,
		frames:   frames,
		data:     make([][]byte, frames),
		stale:    make([]bool, frames),
		owner:    make([]trace.Comp, frames),
		free:     make([]FrameID, frames),
	}
	m.fillFree()
	return m
}

// fillFree rebuilds the full free stack. Popping from the end yields
// ascending IDs first, which keeps traces readable and makes a Reset
// memory allocate the same frame IDs as a fresh one.
func (m *PhysMem) fillFree() {
	m.free = m.free[:m.frames]
	for i := range m.free {
		m.free[i] = FrameID(m.frames - 1 - i)
	}
}

// PageSize returns the frame size in bytes.
func (m *PhysMem) PageSize() uint64 { return m.pageSize }

// TotalFrames returns the number of frames in the machine.
func (m *PhysMem) TotalFrames() int { return m.frames }

// FreeFrames returns the number of unallocated frames.
func (m *PhysMem) FreeFrames() int { return len(m.free) }

// Alloc takes a frame for owner. It returns ErrOutOfMemory when exhausted.
// The owner must be an interned component, not CompNone: a frame owned by
// nobody is a free frame.
func (m *PhysMem) Alloc(owner trace.Comp) (FrameID, error) {
	if owner == trace.CompNone {
		panic("hw: allocating a frame to no owner")
	}
	if len(m.free) == 0 {
		return NoFrame, ErrOutOfMemory
	}
	f := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.own(f, owner)
	m.allocs++
	return f, nil
}

// AllocN allocates n frames for owner, or fails atomically.
func (m *PhysMem) AllocN(owner trace.Comp, n int) ([]FrameID, error) {
	if n > len(m.free) {
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
// read as zero from now on: the page, if any, is marked stale and cleared
// only when Data next touches it.
func (m *PhysMem) Free(f FrameID) {
	m.checkFrame(f)
	o := m.owner[f]
	if o == trace.CompNone {
		panic(fmt.Sprintf("hw: double free of frame %d", f))
	}
	m.owned[o]--
	m.owner[f] = trace.CompNone
	m.stale[f] = m.data[f] != nil
	m.free = append(m.free, f)
}

// Reset restores the memory to its post-NewPhysMem state: every frame free
// and unowned and reading zero (pages are kept and marked stale, not
// cleared), statistics cleared, and the free stack rebuilt in construction
// order so a reused machine allocates the same frame IDs as a fresh one.
func (m *PhysMem) Reset() {
	for f, o := range m.owner {
		if o != trace.CompNone {
			m.owner[f] = trace.CompNone
			m.stale[f] = m.data[f] != nil
		}
	}
	clear(m.owned)
	m.fillFree()
	m.allocs, m.flips = 0, 0
}

// Owner returns the bookkeeping owner of f (CompNone if free). It is the
// ownership check on every page-table update and packet, so it is left to
// the slice's own bounds check to stay inlinable.
func (m *PhysMem) Owner(f FrameID) trace.Comp { return m.owner[f] }

// Transfer reassigns ownership of f to newOwner, modelling a page flip. It
// panics if the frame is free: flipping an unowned page is a kernel bug.
func (m *PhysMem) Transfer(f FrameID, newOwner trace.Comp) {
	m.checkFrame(f)
	o := m.owner[f]
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

// Data returns the writable contents of f, allocating them on first touch
// and scrubbing a stale page.
func (m *PhysMem) Data(f FrameID) []byte {
	m.checkFrame(f)
	p := m.data[f]
	if p == nil {
		p = make([]byte, m.pageSize)
		m.data[f] = p
	} else if m.stale[f] {
		clear(p)
		m.stale[f] = false
	}
	return p
}

// zero reports whether f reads as all zero without looking at its bytes:
// its page was never touched or is stale.
func (m *PhysMem) zero(f FrameID) bool { return m.data[f] == nil || m.stale[f] }

// Copy copies min(len, pageSize) bytes between two frames and returns the
// number of bytes copied.
func (m *PhysMem) Copy(dst, src FrameID, n uint64) uint64 {
	if n > m.pageSize {
		n = m.pageSize
	}
	copy(m.Data(dst)[:n], m.Data(src)[:n])
	return n
}

// CopyPage overwrites frame df with the whole page of frame sf in src,
// which may be m itself or another machine's memory of the same page size.
// A source that reads zero (never touched, or stale) costs nothing: df is
// marked zero without allocating or copying. Otherwise df's page is
// overwritten without being cleared first.
func (m *PhysMem) CopyPage(df FrameID, src *PhysMem, sf FrameID) {
	m.checkFrame(df)
	src.checkFrame(sf)
	if src.pageSize != m.pageSize {
		panic(fmt.Sprintf("hw: page copy between %d- and %d-byte pages", src.pageSize, m.pageSize))
	}
	if src.zero(sf) {
		m.stale[df] = m.data[df] != nil
		return
	}
	p := m.data[df]
	if p == nil {
		p = make([]byte, m.pageSize)
		m.data[df] = p
	}
	copy(p, src.data[sf])
	m.stale[df] = false
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

// Audit checks the allocator's conservation laws: every frame is either
// owned or on the free stack, exactly once (so free plus owned frames equal
// the total), each per-owner count equals a scan of the owners, and every
// free frame reads zero. It is a test oracle, O(frames × pageSize), and
// never runs on the simulation path.
func (m *PhysMem) Audit() error {
	onStack := make([]bool, m.frames)
	for _, f := range m.free {
		if int(f) >= m.frames {
			return fmt.Errorf("hw: free stack holds out-of-range frame %d", f)
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
		if m.stale[f] && m.data[f] == nil {
			return fmt.Errorf("hw: frame %d is stale without a page", f)
		}
		if o == trace.CompNone {
			if !onStack[f] {
				return fmt.Errorf("hw: frame %d is neither owned nor free", f)
			}
			if !m.zero(FrameID(f)) {
				for i, b := range m.data[f] {
					if b != 0 {
						return fmt.Errorf("hw: free frame %d reads %#x at byte %d", f, b, i)
					}
				}
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
