package vmmos

import (
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// RxMode selects how netback moves received packets into a guest.
type RxMode int

// Receive modes: page flipping (Xen 2.x default, what Cherkasova & Gardner
// measured) or hypervisor-mediated grant copy (the later Xen design; the E9
// ablation compares them).
const (
	RxFlip RxMode = iota
	RxCopy
)

// rxSlot is one packet the backend has published to a frontend: a grant on
// the page holding it, the page itself (so copy mode can recycle it into
// the NIC pool), and the payload length.
type rxSlot struct {
	ref   vmm.GrantRef
	frame hw.FrameID
	len   int
}

// txSlot is one packet a frontend has published for transmission.
type txSlot struct {
	ref vmm.GrantRef
	len int
}

// ring is a list of requests one side publishes and the other drains in
// its event handler. It is double-buffered: a drain takes the published
// list and installs the spare for the publisher, and hands the list back
// as the spare only once it has finished iterating. A drain that runs
// meanwhile (a re-entrant one) finds no spare, and the publisher grows a
// fresh list, so no array is reused while a drain further up the stack
// may still be iterating it.
type ring[T any] struct {
	items []T // published, not yet taken
	spare []T // an emptied list no drain is iterating, or nil
}

// push publishes x.
func (r *ring[T]) push(x T) { r.items = append(r.items, x) }

// take returns the published list for the caller to drain; the caller
// gives it back with done.
func (r *ring[T]) take() []T {
	items := r.items
	r.items, r.spare = r.spare, nil
	return items
}

// done returns a list take handed out, once its drain has finished.
func (r *ring[T]) done(items []T) {
	clear(items)
	r.spare = items[:0]
}

// netConn is the shared state of one netback/netfront pair (the moral
// equivalent of the shared ring page plus its two event-channel ports).
type netConn struct {
	guest     vmm.DomID
	backPort  vmm.Port // dom0's port
	frontPort vmm.Port // guest's port
	rxRing    ring[rxSlot]
	txRing    ring[txSlot]
}

// DriverDomain is Dom0: the privileged domain that encapsulates the legacy
// device drivers, exactly the structure §3.2 discusses ("Xen uses a
// separate virtual machine (called Dom0) to encapsulate legacy device
// drivers. Hence, any I/O operation implies at least one round-trip
// communication between the guest VM and Dom0.").
type DriverDomain struct {
	H  *vmm.Hypervisor
	GK *GuestKernel

	NIC  *dev.NIC
	Disk *dev.Disk

	Mode RxMode

	netConns []*netConn
	// inflight holds blkback's requests on the disk, oldest first: the
	// disk completes them in submit order.
	inflight hw.Queue[inflightReq]

	nextBlkBase uint64
}

// rxPoolTarget is how many receive buffers Dom0's NIC driver keeps posted.
const rxPoolTarget = 32

// NewDriverDomain boots Dom0's kernel and its physical drivers, routing the
// device interrupts to the domain.
func NewDriverDomain(h *vmm.Hypervisor, d0 *vmm.Domain, nic *dev.NIC, disk *dev.Disk) (*DriverDomain, error) {
	dd := &DriverDomain{
		H:    h,
		GK:   NewGuestKernel(h, d0),
		NIC:  nic,
		Disk: disk,
	}
	dd.GK.ExtraVIRQ = dd.handleIRQ
	if nic != nil {
		if err := h.RouteIRQ(dev.RxIRQ, d0.ID); err != nil {
			return nil, err
		}
		if err := h.RouteIRQ(dev.TxIRQ, d0.ID); err != nil {
			return nil, err
		}
		dd.replenishRxPool()
	}
	if disk != nil {
		if err := h.RouteIRQ(dev.DiskIRQ, d0.ID); err != nil {
			return nil, err
		}
	}
	return dd, nil
}

// Comp returns the interned trace attribution handle.
func (dd *DriverDomain) Comp() trace.Comp { return dd.GK.Comp() }

// replenishRxPool posts fresh dom0-owned frames to the NIC until the target
// depth is reached. Pool management is real driver work and is charged.
func (dd *DriverDomain) replenishRxPool() {
	for dd.NIC.PostedBuffers() < rxPoolTarget {
		f, err := dd.H.M.Mem.Alloc(dd.Comp())
		if err != nil {
			return // memory pressure: run with a shallower pool
		}
		dd.H.M.CPU.Work(dd.Comp(), 120) // buffer alloc + descriptor write
		if !dd.NIC.PostRxBuffer(f) {
			dd.H.M.Mem.Free(f)
			return
		}
	}
}

// handleIRQ is Dom0's physical interrupt handler (injected by the monitor).
func (dd *DriverDomain) handleIRQ(virq int) {
	switch {
	case dd.NIC != nil && virq == int(dev.RxIRQ):
		dd.netbackRx()
	case dd.NIC != nil && virq == int(dev.TxIRQ):
		dd.H.M.CPU.Work(dd.Comp(), 150) // reap TX descriptors
	case dd.Disk != nil && virq == int(dev.DiskIRQ):
		dd.blkbackComplete()
	}
}

// netbackRx drains the NIC and pushes each packet to the owning guest:
// demux by destination byte, publish a grant, kick the event channel.
func (dd *DriverDomain) netbackRx() {
	comp := dd.Comp()
	for _, c := range dd.NIC.ReapRx() {
		dd.H.M.CPU.Work(comp, 400) // driver RX path: demux, checksum, skb
		if len(dd.netConns) == 0 {
			dd.H.M.Mem.Free(c.Frame) // nobody to deliver to
			continue
		}
		var first [1]byte
		dd.H.M.Mem.Read(c.Frame, 0, first[:])
		dst := int(first[0]) % len(dd.netConns)
		conn := dd.netConns[dst]
		if !dd.H.Alive(conn.guest) {
			dd.H.M.Mem.Free(c.Frame)
			continue
		}
		readOnly := dd.Mode == RxCopy
		ref, err := dd.H.GrantAccess(dd.GK.Dom.ID, c.Frame, conn.guest, readOnly)
		if err != nil {
			dd.H.M.Mem.Free(c.Frame)
			continue
		}
		conn.rxRing.push(rxSlot{ref: ref, frame: c.Frame, len: c.Len})
		// The notification: asynchronous IPC in all but name.
		if err := dd.H.NotifyChannel(dd.GK.Dom.ID, conn.backPort); err != nil {
			continue
		}
	}
	dd.replenishRxPool()
}

// netbackTx is dom0's event handler for a guest's TX kick: map each granted
// packet page, hand it to the NIC, unmap.
func (dd *DriverDomain) netbackTx(conn *netConn) {
	comp := dd.Comp()
	slots := conn.txRing.take()
	defer conn.txRing.done(slots)
	const txWindow = hw.VPN(0xD000)
	for _, slot := range slots {
		dd.H.M.CPU.Work(comp, 350) // driver TX path
		if err := dd.H.GrantMap(dd.GK.Dom.ID, conn.guest, slot.ref, txWindow); err != nil {
			continue
		}
		e, ok := dd.GK.Dom.PT.Lookup(txWindow)
		if ok {
			dd.NIC.Transmit(e.Frame, slot.len)
		}
		dd.H.GrantUnmap(dd.GK.Dom.ID, conn.guest, slot.ref, txWindow)
	}
}

// inflightReq is a block request on the physical disk and the backend
// port its completion notifies the frontend through.
type inflightReq struct {
	req  *blkReq
	port vmm.Port
}

// blkbackSubmit is dom0's event handler for a guest's block kick: validate,
// translate partition-relative blocks (the partition starts at base and
// holds size blocks), submit to the physical disk with the guest's granted
// frame as the DMA target.
func (dd *DriverDomain) blkbackSubmit(r *blkRing, base, size uint64) {
	comp := dd.Comp()
	reqs := r.reqs.take()
	defer r.reqs.done(reqs)
	for _, req := range reqs {
		dd.H.M.CPU.Work(comp, 300) // request validation and translation
		if req.block >= size {
			req.done, req.ok = true, false
			dd.H.NotifyChannel(dd.GK.Dom.ID, r.backPort)
			continue
		}
		op := dev.DiskRead
		if req.write {
			op = dev.DiskWrite
		}
		dd.inflight.Push(inflightReq{req: req, port: r.backPort})
		dd.Disk.Submit(dev.DiskReq{Op: op, Block: base + req.block, Frame: req.frame})
	}
}

// blkbackComplete handles the physical disk's completion interrupt: each
// completion finishes the oldest request in flight, whose guest it
// notifies.
func (dd *DriverDomain) blkbackComplete() {
	comp := dd.Comp()
	for _, c := range dd.Disk.Reap() {
		dd.H.M.CPU.Work(comp, 200)
		if p, ok := dd.inflight.Pop(); ok {
			p.req.done, p.req.ok = true, c.OK
			dd.H.NotifyChannel(dd.GK.Dom.ID, p.port)
		}
	}
}
