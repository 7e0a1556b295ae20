package vmmos

import (
	"vmmk/internal/hw"
	"vmmk/internal/vmm"
)

// blkReq is one block request a frontend has published: the block, the
// grant on the guest's buffer page, and the outcome the backend records.
type blkReq struct {
	write bool
	block uint64
	ref   vmm.GrantRef
	frame hw.FrameID // guest's buffer frame (granted)
	done  bool
	ok    bool
}

// blkRing is the shared state of one block frontend and its backend,
// blkback or Parallax (the moral equivalent of the shared ring page plus
// its two event-channel ports).
type blkRing struct {
	backPort  vmm.Port // the backend's port
	frontPort vmm.Port // the guest's port
	reqs      ring[*blkReq]
}

// BlkFront is the guest side of the split block driver, whichever backend
// serves it: Dom0's blkback (ConnectBlk) or the Parallax appliance
// (Parallax.AttachClient). Each request grants a guest buffer page to the
// backend, kicks the event channel, and waits for the completion event by
// driving the machine's event queue (the simulation's stand-in for
// blocking).
type BlkFront struct {
	gk   *GuestKernel
	back vmm.DomID // the backend's domain
	ring *blkRing
	buf  hw.FrameID
	last *blkReq // the latest request, reused once it has completed

	readBuf []byte // reused Read result buffer, valid until the next Read
}

// newBlkFront binds a block ring between guest gk and the backend running
// on kernel back, gives the guest a buffer page, and installs the
// frontend as the guest's block device. The caller registers the
// backend's kick handler on the ring's back port.
func newBlkFront(back, gk *GuestKernel) (*BlkFront, error) {
	backPort, frontPort, err := gk.H.BindChannel(back.Dom.ID, gk.Dom.ID)
	if err != nil {
		return nil, err
	}
	buf, err := gk.H.M.Mem.Alloc(gk.Comp())
	if err != nil {
		return nil, err
	}
	bf := &BlkFront{
		gk:   gk,
		back: back.Dom.ID,
		ring: &blkRing{backPort: backPort, frontPort: frontPort},
		buf:  buf,
	}
	gk.Blk = bf
	return bf, nil
}

// ConnectBlk attaches a guest to a fresh partition of the physical disk of
// size blocks, served by Dom0's blkback.
func ConnectBlk(dd *DriverDomain, gk *GuestKernel, blocks uint64) (*BlkFront, error) {
	bf, err := newBlkFront(dd.GK, gk)
	if err != nil {
		return nil, err
	}
	r, base := bf.ring, dd.nextBlkBase
	dd.nextBlkBase += blocks
	dd.GK.ExtraEvent[r.backPort] = func() { dd.blkbackSubmit(r, base, blocks) }
	return bf, nil
}

// onEvent: completion notifications arrive here; state was already updated
// by the backend through the shared request, so only demux work is charged.
func (bf *BlkFront) onEvent() {
	bf.gk.H.M.CPU.Work(bf.gk.Comp(), 150)
}

// submit runs one request to completion.
func (bf *BlkFront) submit(write bool, block uint64) error {
	h := bf.gk.H
	if !h.Alive(bf.back) {
		return ErrBackendDead
	}
	h.M.CPU.Work(bf.gk.Comp(), 250) // request construction
	// The backend only reads the page on a write.
	ref, err := h.GrantAccess(bf.gk.Dom.ID, bf.buf, bf.back, write)
	if err != nil {
		return err
	}
	// A request that timed out may still complete later, so only a
	// completed record is reused.
	req := bf.last
	if req == nil || !req.done {
		req = new(blkReq)
		bf.last = req
	}
	*req = blkReq{write: write, block: block, ref: ref, frame: bf.buf}
	bf.ring.reqs.push(req)
	if err := h.NotifyChannel(bf.gk.Dom.ID, bf.ring.frontPort); err != nil {
		return err
	}
	// "Block": drive the machine until the completion lands. The backend
	// answers from its event handler or a scheduled disk event, so a
	// bounded pump suffices.
	for i := 0; i < 64 && !req.done; i++ {
		if h.PumpIO(8) == 0 {
			break
		}
	}
	if !req.done {
		// The grant stays: a late completion may still DMA into the page.
		return ErrIOTimeout
	}
	h.GrantEnd(bf.gk.Dom.ID, ref)
	if !req.ok {
		return ErrIOTimeout
	}
	return nil
}

// Read returns the contents of a block. The returned slice is a reused
// buffer, valid until the frontend's next Read.
func (bf *BlkFront) Read(block uint64) ([]byte, error) {
	if err := bf.submit(false, block); err != nil {
		return nil, err
	}
	ps := bf.gk.H.M.Mem.PageSize()
	if cap(bf.readBuf) < int(ps) {
		bf.readBuf = make([]byte, ps)
	}
	out := bf.readBuf[:ps]
	bf.gk.H.M.Mem.Read(bf.buf, 0, out)
	return out, nil
}

// Write stores data into a block.
func (bf *BlkFront) Write(block uint64, data []byte) error {
	bf.gk.H.M.Mem.Load(bf.buf, data)
	return bf.submit(true, block)
}
