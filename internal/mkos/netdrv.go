package mkos

import (
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/mk"
	"vmmk/internal/trace"
)

// RxMode selects how the driver moves received packets to a client OS
// server: by granting the packet page through a map item (the zero-copy
// analogue of Xen's page flip) or by a string-transfer copy, the mk twin
// of netback's copy mode. TestGrantVsCopyCPUProportionality compares the
// two, mirroring the flip/copy study on the VMM side.
type RxMode int

// Receive modes.
const (
	RxGrant RxMode = iota
	RxStringCopy
)

// NetDriver is the user-level NIC driver server: a thread that receives the
// NIC's interrupts as IPC, reaps the device, and forwards each packet to
// the owning client with one IPC. It is exactly the Dom0-encapsulated
// driver of §3.2 without the virtual machine around it.
type NetDriver struct {
	K      *mk.Kernel
	NIC    *dev.NIC
	Space  *mk.Space
	Thread *mk.Thread
	Mode   RxMode

	clients []*NetClient
	ringVPN hw.VPN
	txReply [1]uint64 // reused one-word TX reply (the kernel copies replies)
}

// rxPoolTarget is how many receive buffers the driver keeps posted to the
// NIC.
const rxPoolTarget = 32

// NetClient is one OS server's connection to the driver.
type NetClient struct {
	drv *NetDriver
	os  *OSServer
}

// NewNetDriver boots the driver server and claims the NIC's interrupts.
func NewNetDriver(k *mk.Kernel, nic *dev.NIC) (*NetDriver, error) {
	sp, err := k.NewSpace("srv.net", mk.NilThread)
	if err != nil {
		return nil, err
	}
	d := &NetDriver{
		K:       k,
		NIC:     nic,
		Space:   sp,
		Mode:    RxGrant,
		ringVPN: 0xA000,
	}
	d.Thread = k.NewThread(sp, "srv.net", 8, d.handle)
	if err := k.RegisterIRQ(dev.RxIRQ, d.Thread.ID); err != nil {
		return nil, err
	}
	if err := k.RegisterIRQ(dev.TxIRQ, d.Thread.ID); err != nil {
		return nil, err
	}
	d.replenish()
	return d, nil
}

// Comp returns the server's interned trace attribution handle.
func (d *NetDriver) Comp() trace.Comp { return d.Thread.Comp() }

// Attach connects an OS server as a packet client; packets whose first byte
// selects this client's index are delivered to it.
func (d *NetDriver) Attach(os *OSServer) *NetClient {
	c := &NetClient{drv: d, os: os}
	d.clients = append(d.clients, c)
	os.Net = c
	return c
}

// replenish posts driver-owned frames to the NIC.
func (d *NetDriver) replenish() {
	for d.NIC.PostedBuffers() < rxPoolTarget {
		f, err := d.K.M.Mem.Alloc(d.Comp())
		if err != nil {
			return
		}
		d.K.M.CPU.Work(d.Comp(), 120)
		if !d.NIC.PostRxBuffer(f) {
			d.K.M.Mem.Free(f)
			return
		}
	}
}

// handle is the driver's IPC entry: interrupt IPCs from the kernel and TX
// requests from clients.
func (d *NetDriver) handle(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
	switch msg.Label {
	case mk.LabelIRQ:
		if len(msg.Words) == 0 {
			return mk.Msg{}, ErrBadRequest
		}
		switch hw.IRQLine(msg.Words[0]) {
		case dev.RxIRQ:
			d.rx(k)
		case dev.TxIRQ:
			k.M.CPU.Work(d.Comp(), 150) // reap TX descriptors
		}
		return mk.Msg{}, nil
	case LabelNetTx:
		return d.tx(k, msg)
	}
	return mk.Msg{}, ErrBadRequest
}

// tx stages a client payload into a driver frame and programs the NIC.
func (d *NetDriver) tx(k *mk.Kernel, msg mk.Msg) (mk.Msg, error) {
	comp := d.Comp()
	k.M.CPU.Work(comp, 350) // driver TX path
	f, err := k.M.Mem.Alloc(d.Comp())
	if err != nil {
		return mk.Msg{}, err
	}
	k.M.Mem.Write(f, 0, msg.Data)
	d.NIC.Transmit(f, len(msg.Data))
	// The NIC copied the payload out during Transmit; release the staging
	// frame immediately.
	k.M.Mem.Free(f)
	d.txReply[0] = uint64(len(msg.Data))
	return mk.Msg{Words: d.txReply[:]}, nil
}

// rx drains the NIC and forwards each packet to its client via IPC.
func (d *NetDriver) rx(k *mk.Kernel) {
	comp := d.Comp()
	for _, c := range d.NIC.ReapRx() {
		k.M.CPU.Work(comp, 400) // driver RX path: demux, checksum
		if len(d.clients) == 0 {
			k.M.Mem.Free(c.Frame)
			continue
		}
		var first [1]byte
		k.M.Mem.Read(c.Frame, 0, first[:])
		dst := int(first[0]) % len(d.clients)
		client := d.clients[dst]
		if !k.Alive(client.os.Thread.ID) {
			k.M.Mem.Free(c.Frame)
			continue
		}
		// The kernel copies message bodies into its registers on
		// delivery, so the frame's live bytes can ride in the descriptor
		// directly — one copy per packet (the kernel's), not two. A
		// frame that reads zero rides as shared zero bytes.
		payload := k.M.Mem.View(c.Frame, c.Len)
		switch d.Mode {
		case RxGrant:
			// Zero-copy delivery: grant the packet page to the client
			// alongside the (small) descriptor. The page leaves the
			// driver's pool; the client frees it after consumption and
			// the driver re-allocates — one ownership transfer per
			// packet, the mk analogue of the flip.
			vpn := d.ringVPN
			d.ringVPN++
			d.Space.PT.Map(vpn, hw.PTE{Frame: c.Frame, Perms: hw.PermRW, User: true})
			err := k.Send(d.Thread.ID, client.os.Thread.ID, mk.Msg{
				Label: LabelNetRxDeliver,
				Words: []uint64{uint64(c.Len)},
				Data:  payload, // descriptor+payload view for the client queue
				Map:   []mk.MapItem{{SrcVPN: vpn, DstVPN: vpn, Count: 1, Perms: hw.PermRW, Grant: true}},
			})
			if err != nil {
				k.M.Mem.Free(c.Frame)
				continue
			}
			// The client consumed the payload into its queue; the page
			// itself is returned to the allocator (balloon model).
			client.os.Space.PT.Unmap(vpn)
			k.M.Mem.Free(c.Frame)
		case RxStringCopy:
			err := k.Send(d.Thread.ID, client.os.Thread.ID, mk.Msg{
				Label: LabelNetRxDeliver,
				Words: []uint64{uint64(c.Len)},
				Data:  payload,
			})
			if err == nil {
				// Driver keeps its page: straight back into the pool.
				d.K.M.CPU.Work(comp, 80)
				d.NIC.PostRxBuffer(c.Frame)
				continue
			}
			k.M.Mem.Free(c.Frame)
		}
	}
	d.replenish()
}

// Send transmits one packet on behalf of the client: one IPC to the driver,
// which stages the payload into a frame and programs the NIC.
func (c *NetClient) Send(data []byte) error {
	k := c.drv.K
	if !k.Alive(c.drv.Thread.ID) {
		return mk.ErrDeadPartner
	}
	_, err := k.Call(c.os.Thread.ID, c.drv.Thread.ID, mk.Msg{Label: LabelNetTx, Data: data})
	return err
}
