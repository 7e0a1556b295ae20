package vmmos

import (
	"vmmk/internal/hw"
	"vmmk/internal/vmm"
)

// NetFront is the guest side of the split network driver. Receive follows
// the backend's mode: in flip mode the frontend pulls each published page
// into its own memory with a grant transfer (one flip per packet); in copy
// mode it grant-copies the payload into a local buffer and lets the backend
// keep its page. Transmit grants the packet page to Dom0 read-only and
// kicks the event channel.
type NetFront struct {
	gk        *GuestKernel
	dd        *DriverDomain
	conn      *netConn
	localPort vmm.Port
	mode      RxMode

	rxBuf hw.FrameID // copy-mode landing buffer
	txBuf hw.FrameID
}

// ConnectNet wires a guest kernel to the driver domain's netback, creating
// the event channel and ring state.
func ConnectNet(dd *DriverDomain, gk *GuestKernel) (*NetFront, error) {
	backPort, frontPort, err := dd.H.BindChannel(dd.GK.Dom.ID, gk.Dom.ID)
	if err != nil {
		return nil, err
	}
	nf := &NetFront{gk: gk, dd: dd, localPort: frontPort, mode: dd.Mode}
	// Dedicated guest-owned buffers for copy-mode RX and for TX staging.
	rxb, err := dd.H.M.Mem.Alloc(gk.Comp())
	if err != nil {
		return nil, err
	}
	txb, err := dd.H.M.Mem.Alloc(gk.Comp())
	if err != nil {
		return nil, err
	}
	nf.rxBuf, nf.txBuf = rxb, txb
	// Make the guest kernel the legal owner list holder of these frames.
	conn := &netConn{guest: gk.Dom.ID, backPort: backPort, frontPort: frontPort}
	nf.conn = conn
	dd.netConns = append(dd.netConns, conn)
	dd.GK.ExtraEvent[backPort] = func() { dd.netbackTx(conn) }
	gk.Net = nf
	return nf, nil
}

// onEvent is the frontend's upcall: drain the RX ring.
func (nf *NetFront) onEvent() {
	comp := nf.gk.Comp()
	h := nf.gk.H
	slots := nf.conn.rxRing.take()
	defer nf.conn.rxRing.done(slots)
	for _, slot := range slots {
		h.M.CPU.Work(comp, 250) // frontend RX path: ring walk, skb alloc
		switch nf.mode {
		case RxFlip:
			f, err := h.GrantTransfer(nf.gk.Dom.ID, nf.dd.GK.Dom.ID, slot.ref)
			if err != nil {
				continue
			}
			// The flipped page IS the packet (zero-copy); only the
			// descriptor outlives this upcall, since user space consumes
			// packets by length (SysNetRecv).
			nf.gk.Deliver(slot.len)
			// Return the page to the machine pool; dom0 balloons a
			// replacement for its NIC pool. (Xen 2.x exchanged pages;
			// the flip count per packet — the measured quantity — is
			// identical.)
			nf.gk.Dom.ReleaseFrame(f)
		case RxCopy:
			if err := h.GrantCopy(nf.gk.Dom.ID, nf.dd.GK.Dom.ID, slot.ref, nf.rxBuf, uint64(slot.len)); err != nil {
				continue
			}
			// GrantCopy has already landed the bytes in rxBuf and charged
			// the copy; queue the descriptor.
			nf.gk.Deliver(slot.len)
			// Backend keeps its page: revoke the grant and let dom0
			// recycle the frame straight back into the NIC pool.
			h.GrantRevoke(nf.dd.GK.Dom.ID, slot.ref)
			nf.dd.H.M.CPU.Work(nf.dd.Comp(), 80) // pool recycle
			nf.dd.NIC.PostRxBuffer(slot.frame)
		}
	}
}

// Send transmits one packet: stage into the TX buffer, grant it to Dom0,
// kick the channel. Netback transmits from the event handler the kick
// runs, so once the kick returns the guest ends its grant.
func (nf *NetFront) Send(data []byte) error {
	comp := nf.gk.Comp()
	h := nf.gk.H
	if !h.Alive(nf.dd.GK.Dom.ID) {
		return ErrBackendDead
	}
	h.M.CPU.Work(comp, 300+h.M.CPU.CopyCost(uint64(len(data))))
	h.M.Mem.Write(nf.txBuf, 0, data)
	ref, err := h.GrantAccess(nf.gk.Dom.ID, nf.txBuf, nf.dd.GK.Dom.ID, true)
	if err != nil {
		return err
	}
	nf.conn.txRing.push(txSlot{ref: ref, len: len(data)})
	if err := h.NotifyChannel(nf.gk.Dom.ID, nf.conn.frontPort); err != nil {
		return err
	}
	h.GrantEnd(nf.gk.Dom.ID, ref)
	return nil
}
