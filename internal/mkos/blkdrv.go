package mkos

import (
	"vmmk/internal/fslite"
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/mk"
	"vmmk/internal/trace"
)

// BlkDriver is the user-level disk driver server: one thread owning the
// physical disk, receiving its completion interrupts as IPC and serving
// partition-relative reads and writes to clients via IPC calls.
type BlkDriver struct {
	K      *mk.Kernel
	Disk   *dev.Disk
	Space  *mk.Space
	Thread *mk.Thread

	parts    map[mk.ThreadID]*partition
	nextBase uint64
	// inflight holds the records of the requests on the disk, oldest
	// first: the disk completes them in submit order.
	inflight hw.Queue[*blkPending]
	last     *blkPending // the latest request's record, reused once it has completed

	replyBuf  []byte    // reused read-reply staging page (the kernel copies replies)
	replyWord [1]uint64 // reused one-word write reply, always 0 (likewise)
}

type partition struct {
	base, size uint64
}

type blkPending struct {
	done bool
	ok   bool
}

// NewBlkDriver boots the disk driver server and claims the disk interrupt.
func NewBlkDriver(k *mk.Kernel, disk *dev.Disk) (*BlkDriver, error) {
	sp, err := k.NewSpace("srv.blk", mk.NilThread)
	if err != nil {
		return nil, err
	}
	d := &BlkDriver{
		K:     k,
		Disk:  disk,
		Space: sp,
		parts: make(map[mk.ThreadID]*partition),
	}
	d.Thread = k.NewThread(sp, "srv.blk", 8, d.handle)
	if err := k.RegisterIRQ(dev.DiskIRQ, d.Thread.ID); err != nil {
		return nil, err
	}
	return d, nil
}

// Comp returns the server's interned trace attribution handle.
func (d *BlkDriver) Comp() trace.Comp { return d.Thread.Comp() }

// GrantPartition assigns a fresh partition of size blocks to a client
// thread (an OS server or the storage server).
func (d *BlkDriver) GrantPartition(client mk.ThreadID, size uint64) {
	d.parts[client] = &partition{base: d.nextBase, size: size}
	d.nextBase += size
	d.K.M.CPU.Work(d.Comp(), 200)
}

// handle serves IRQ IPCs and client read/write calls.
func (d *BlkDriver) handle(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
	comp := d.Comp()
	switch msg.Label {
	case mk.LabelIRQ:
		for _, c := range d.Disk.Reap() {
			k.M.CPU.Work(comp, 200)
			if p, ok := d.inflight.Pop(); ok {
				p.done, p.ok = true, c.OK
			}
		}
		return mk.Msg{}, nil
	case LabelBlkRead, LabelBlkWrite:
		if len(msg.Words) < 1 {
			return mk.Msg{}, ErrBadRequest
		}
		part := d.parts[from]
		if part == nil {
			return mk.Msg{}, ErrNoBlock
		}
		block := msg.Words[0]
		if block >= part.size || uint64(len(msg.Data)) > k.M.Mem.PageSize() {
			return mk.Msg{}, ErrBadRequest
		}
		k.M.CPU.Work(comp, 300) // request validation, translation
		f, err := k.M.Mem.Alloc(d.Comp())
		if err != nil {
			return mk.Msg{}, err
		}
		defer k.M.Mem.Free(f)
		op := dev.DiskRead
		if msg.Label == LabelBlkWrite {
			op = dev.DiskWrite
			// Freshly allocated frames are all-zero by PhysMem invariant,
			// so staging is just the payload copy.
			k.M.Mem.Write(f, 0, msg.Data)
			k.M.CPU.Work(comp, k.M.CPU.CopyCost(uint64(len(msg.Data))))
		}
		// A request that timed out stays in flight and may complete
		// later, so only a completed record is reused.
		pend := d.last
		if pend == nil || !pend.done {
			pend = new(blkPending)
			d.last = pend
		}
		*pend = blkPending{}
		d.inflight.Push(pend)
		d.Disk.Submit(dev.DiskReq{Op: op, Block: part.base + block, Frame: f})
		// "Block" until the completion interrupt lands (delivered to this
		// same thread as an IRQ IPC by the pump).
		for i := 0; i < 64 && !pend.done; i++ {
			if k.PumpIO(8) == 0 {
				break
			}
		}
		if !pend.done || !pend.ok {
			return mk.Msg{}, ErrBadRequest
		}
		if op == dev.DiskRead {
			ps := k.M.Mem.PageSize()
			// Reused scratch: the kernel copies the reply into the
			// client's registers.
			if cap(d.replyBuf) < int(ps) {
				d.replyBuf = make([]byte, ps)
			}
			out := d.replyBuf[:ps]
			k.M.Mem.Read(f, 0, out)
			k.M.CPU.Work(comp, k.M.CPU.CopyCost(ps))
			return mk.Msg{Data: out}, nil
		}
		return mk.Msg{Words: d.replyWord[:]}, nil
	}
	return mk.Msg{}, ErrBadRequest
}

// BlkClient is one client thread's handle on an mk block server: the disk
// driver (BlkDriver.NewBlkClient) or the storage server
// (StoreServer.Attach), which both answer LabelBlkRead and LabelBlkWrite.
type BlkClient struct {
	k      *mk.Kernel
	server mk.ThreadID
	client mk.ThreadID
}

// NewBlkClient grants the client a partition and returns its handle.
func (d *BlkDriver) NewBlkClient(client mk.ThreadID, size uint64) *BlkClient {
	d.GrantPartition(client, size)
	return &BlkClient{k: d.K, server: d.Thread.ID, client: client}
}

// Read fetches one block via IPC to the server. The returned bytes are the
// client thread's reply registers, valid until that thread's next IPC.
func (c *BlkClient) Read(block uint64) ([]byte, error) {
	reply, err := c.k.Call(c.client, c.server, mk.Msg{Label: LabelBlkRead, Words: []uint64{block}})
	if err != nil {
		return nil, err
	}
	return reply.Data, nil
}

// Write stores one block, at most a page, via IPC to the server.
func (c *BlkClient) Write(block uint64, data []byte) error {
	if uint64(len(data)) > c.k.M.Mem.PageSize() {
		return fslite.ErrBlockTooLong
	}
	_, err := c.k.Call(c.client, c.server, mk.Msg{Label: LabelBlkWrite, Words: []uint64{block}, Data: data})
	return err
}
