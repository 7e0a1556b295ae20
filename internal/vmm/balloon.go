package vmm

import (
	"errors"

	"vmmk/internal/hw"
)

// Ballooning: the memory-elasticity hypercalls that let a domain return
// pages to the machine pool and reclaim them later. This is the mechanism
// behind the flip path's steady state (the guest balloons out consumed
// packet pages, Dom0 balloons replacements into its NIC pool) and the
// standard way VM memory is resized — another entry in the VMM's primitive
// inventory (it rides hypercall + P2M machinery, primitives 4 and 5).

// ErrBalloonEmpty is returned when inflating from an empty machine pool.
var ErrBalloonEmpty = errors.New("vmm: no free machine memory to balloon in")

// BalloonOut releases n owned pages (highest guest page numbers first) to
// the machine pool. It returns how many were actually released — holes and
// flipped-away slots are skipped. The released frames leave the page table
// in one batch unmap, which never builds the table's frame filter.
func (h *Hypervisor) BalloonOut(dom DomID, n int) (int, error) {
	d, err := h.lookup(dom)
	if err != nil {
		return 0, err
	}
	h.hypercallEntry(d)
	defer h.hypercallExit()
	victims := h.victims[:0]
	for gpn := len(d.frames) - 1; gpn >= 0 && len(victims) < n; gpn-- {
		f := d.frames[gpn]
		if f == hw.NoFrame || !d.OwnsFrame(f) {
			continue
		}
		d.punch(gpn)
		victims = append(victims, f)
	}
	h.victims = victims
	if len(victims) == 0 {
		return 0, nil
	}
	d.PT.UnmapFrames(victims)
	for _, f := range victims {
		h.M.Mem.Free(f)
	}
	h.M.CPU.WorkN(h.comp, hw.Cycles(60)+h.M.Arch.Costs.PTEUpdate, uint64(len(victims)))
	h.M.CPU.FlushTLB(h.comp)
	return len(victims), nil
}

// BalloonIn allocates n fresh pages to the domain, filling P2M holes first
// and appending beyond them. It returns how many pages were obtained. With
// a dirty log enabled the new pages arrive armed, so the guest's first
// store to each is logged.
func (h *Hypervisor) BalloonIn(dom DomID, n int) (int, error) {
	d, err := h.lookup(dom)
	if err != nil {
		return 0, err
	}
	h.hypercallEntry(d)
	defer h.hypercallExit()
	got := 0
	fill := func(gpn int) bool {
		if _, err := d.fill(gpn); err != nil {
			return false
		}
		if dl := d.dirtyLog; dl != nil {
			dl.armNew(gpn)
		}
		h.M.CPU.Work(h.comp, 80)
		got++
		return true
	}
	for gpn := 0; gpn < len(d.frames) && got < n; gpn++ {
		if d.frames[gpn] == hw.NoFrame {
			if !fill(gpn) {
				return got, ErrBalloonEmpty
			}
		}
	}
	for got < n {
		if !fill(len(d.frames)) {
			return got, ErrBalloonEmpty
		}
	}
	return got, nil
}

// OwnedPages returns the number of machine pages the domain currently owns
// (holes excluded): its P2M's resident count, which the P2M mutators keep
// current.
func (d *Domain) OwnedPages() int { return d.resident }
