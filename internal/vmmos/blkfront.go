package vmmos

import (
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/vmm"
)

// BlkFront is the guest side of the split block driver. Each request grants
// a guest buffer page to Dom0, kicks the event channel, and waits for the
// completion event by driving the machine's event queue (the simulation's
// stand-in for blocking).
type BlkFront struct {
	gk        *GuestKernel
	dd        *DriverDomain
	conn      *blkConn
	localPort vmm.Port
	buf       hw.FrameID
	last      *blkReq // the latest request, reused once it has completed

	reads  uint64
	writes uint64
}

// ConnectBlk attaches a guest to a fresh partition of the physical disk of
// size blocks, served by Dom0's blkback.
func ConnectBlk(dd *DriverDomain, gk *GuestKernel, blocks uint64) (*BlkFront, error) {
	backPort, frontPort, err := dd.H.BindChannel(dd.GK.Dom.ID, gk.Dom.ID)
	if err != nil {
		return nil, err
	}
	buf, err := dd.H.M.Mem.Alloc(gk.Comp())
	if err != nil {
		return nil, err
	}
	bf := &BlkFront{gk: gk, dd: dd, localPort: frontPort, buf: buf}
	conn := &blkConn{
		guest:     gk.Dom.ID,
		backPort:  backPort,
		frontPort: frontPort,
		inflight:  make(map[uint64]*blkReq),
		base:      dd.nextBlkBase,
		size:      blocks,
	}
	dd.nextBlkBase += blocks
	bf.conn = conn
	dd.blkConns[gk.Dom.ID] = conn
	dd.GK.ExtraEvent[backPort] = func() { dd.blkbackSubmit(conn) }
	gk.Blk = bf
	return bf, nil
}

func (bf *BlkFront) port() vmm.Port { return bf.localPort }

// onEvent: completion notifications arrive here; state was already updated
// by blkback through the shared request, so only demux work is charged.
func (bf *BlkFront) onEvent() {
	bf.gk.H.M.CPU.Work(bf.gk.Comp(), 150)
}

// submit runs one request to completion.
func (bf *BlkFront) submit(op dev.DiskOp, block uint64) (*blkReq, error) {
	h := bf.gk.H
	if !h.Alive(bf.dd.GK.Dom.ID) {
		return nil, ErrBackendDead
	}
	h.M.CPU.Work(bf.gk.Comp(), 250) // request construction
	readOnly := op == dev.DiskWrite // dom0 only reads our page on write
	ref, err := h.GrantAccess(bf.gk.Dom.ID, bf.buf, bf.dd.GK.Dom.ID, readOnly)
	if err != nil {
		return nil, err
	}
	// A request that timed out may still complete later through its tag,
	// so only a completed record is reused.
	req := bf.last
	if req == nil || !req.done {
		req = new(blkReq)
		bf.last = req
	}
	*req = blkReq{op: op, block: block, ref: ref, frame: bf.buf}
	bf.conn.reqs.push(req)
	if err := h.NotifyChannel(bf.gk.Dom.ID, bf.conn.frontPort); err != nil {
		return nil, err
	}
	// "Block": drive the machine until the completion lands. The disk
	// event is scheduled, so a bounded pump suffices.
	for i := 0; i < 64 && !req.done; i++ {
		if h.PumpIO(8) == 0 {
			break
		}
	}
	if !req.done {
		return nil, ErrIOTimeout
	}
	if !req.ok {
		return nil, ErrIOTimeout
	}
	return req, nil
}

// Read returns the contents of a partition-relative block.
func (bf *BlkFront) Read(block uint64) ([]byte, error) {
	if _, err := bf.submit(dev.DiskRead, block); err != nil {
		return nil, err
	}
	bf.reads++
	out := make([]byte, bf.gk.H.M.Mem.PageSize())
	bf.gk.H.M.Mem.Read(bf.buf, 0, out)
	return out, nil
}

// Write stores data into a partition-relative block.
func (bf *BlkFront) Write(block uint64, data []byte) error {
	bf.gk.H.M.Mem.Load(bf.buf, data)
	if _, err := bf.submit(dev.DiskWrite, block); err != nil {
		return err
	}
	bf.writes++
	return nil
}

// Stats returns completed read and write counts.
func (bf *BlkFront) Stats() (reads, writes uint64) { return bf.reads, bf.writes }
