package dev

import (
	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// DiskOp is a block-device operation direction.
type DiskOp int

// Disk operations.
const (
	DiskRead DiskOp = iota
	DiskWrite
)

// String names the disk operation.
func (op DiskOp) String() string {
	if op == DiskRead {
		return "read"
	}
	return "write"
}

// DiskReq is one block request: move one block between the platter and a
// physical frame.
type DiskReq struct {
	Op    DiskOp
	Block uint64
	Frame hw.FrameID
	Tag   uint64 // caller-chosen identifier returned on completion
}

// DiskCompletion reports a finished request.
type DiskCompletion struct {
	Req DiskReq
	OK  bool
}

// Disk is a fixed-latency block device with a completion interrupt. Blocks
// are page-sized; contents persist in the device for the lifetime of the
// simulation, which lets storage servers (Parallax-like) be checked for
// end-to-end data integrity.
type Disk struct {
	m       *hw.Machine
	comp    trace.Comp // "hw.disk", interned at construction
	latency hw.Cycles
	blocks  uint64
	store   map[uint64][]byte
	// Every request waits the same latency, so requests complete in
	// submit order: one FIFO of in-flight requests and one completion
	// callback, bound at construction, serve them all.
	inFlight  hw.Queue[DiskReq]
	complete  func()
	completed []DiskCompletion // filled by finished requests
	reaped    []DiskCompletion // returned by the last Reap; the next fill buffer
}

// DiskConfig sizes a Disk.
type DiskConfig struct {
	Blocks  uint64    // capacity in blocks (default 65536)
	Latency hw.Cycles // per-request service time (default 50000, i.e. "fast disk")
}

// NewDisk attaches a disk to machine m.
func NewDisk(m *hw.Machine, cfg DiskConfig) *Disk {
	blocks := cfg.Blocks
	if blocks == 0 {
		blocks = 65536
	}
	lat := cfg.Latency
	if lat == 0 {
		lat = 50000
	}
	d := &Disk{m: m, comp: m.Rec.Intern("hw.disk"), latency: lat, blocks: blocks, store: make(map[uint64][]byte)}
	d.complete = d.completeOldest
	return d
}

// Blocks returns the device capacity in blocks.
func (d *Disk) Blocks() uint64 { return d.blocks }

// Submit queues a request; it completes after the device latency and raises
// the completion IRQ. Out-of-range blocks complete with OK=false.
func (d *Disk) Submit(req DiskReq) {
	d.inFlight.Push(req)
	d.m.Events.ScheduleAfter(d.latency, d.complete)
}

// completeOldest is the latency event of the oldest in-flight request.
func (d *Disk) completeOldest() {
	req, _ := d.inFlight.Pop()
	ok := req.Block < d.blocks
	if ok {
		ps := d.m.Mem.PageSize()
		switch req.Op {
		case DiskRead:
			d.m.Mem.Load(req.Frame, d.store[req.Block])
		case DiskWrite:
			// The store keeps only the frame's written prefix, and reads
			// load it back with its zero tail. Purely a simulator-memory
			// optimisation: the DMA charge below is per page either way.
			d.store[req.Block] = append(d.store[req.Block][:0], d.m.Mem.Bytes(req.Frame)...)
		}
		d.m.CPU.Rec.Charge(uint64(d.m.Clock.Now()), trace.KDMATransfer, d.comp, uint64(ps/8))
	}
	d.completed = append(d.completed, DiskCompletion{Req: req, OK: ok})
	d.m.IRQ.Raise(DiskIRQ)
}

// Reap returns and clears completed requests. The returned slice is valid
// until the next Reap, which refills it: the device keeps two completion
// buffers and swaps them on each reap.
func (d *Disk) Reap() []DiskCompletion {
	out := d.completed
	d.completed, d.reaped = d.reaped[:0], out
	return out
}

// InFlight returns the number of submitted, un-completed requests.
func (d *Disk) InFlight() int { return d.inFlight.Len() }

// PeekBlock returns a copy of a block's stored contents (nil if never
// written) — test/verification hook, not a device register.
func (d *Disk) PeekBlock(block uint64) []byte {
	blk, ok := d.store[block]
	if !ok {
		return nil
	}
	out := make([]byte, d.m.Mem.PageSize())
	copy(out, blk)
	return out
}
