// Package dev provides the simulated devices both driver stacks program:
// a DMA-capable NIC and a block disk. Devices interact with the rest of the
// machine only through the event queue, DMA into physical frames, and
// interrupt lines — the same contract real devices have with a real
// kernel.
//
// A DMA transfer is the one charge that does not move the clock: the
// device moves the words while the CPU runs on, so each transfer lands on
// the recorder directly (KDMATransfer, its words as the device's cycles),
// stamped at the current cycle. Device time passes only through the event
// queue, as a completion scheduled after the device's latency.
package dev

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// The interrupt lines the devices raise. No machine carries more than one
// NIC or disk, so the lines are fixed and drivers name them directly.
const (
	RxIRQ   hw.IRQLine = 1 // NIC: packets received
	TxIRQ   hw.IRQLine = 2 // NIC: transmits completed
	DiskIRQ hw.IRQLine = 3 // disk: requests completed
)

// Packet is a network frame in flight.
type Packet struct {
	Data []byte
	Seq  uint64
}

// NIC is a simple DMA ring network interface. The driver posts receive
// buffers (physical frames); arriving packets are DMA'd into the next
// buffer and the RX interrupt is raised. Transmits complete after a fixed
// wire latency and raise the TX interrupt.
type NIC struct {
	m    *hw.Machine
	comp trace.Comp // "hw.nic", interned at construction

	rxRing    []hw.FrameID
	rxHead    int // next buffer to fill
	rxTail    int // next buffer for the driver to reap
	rxCount   int
	completed []RxCompletion // filled by Inject
	reaped    []RxCompletion // returned by the last ReapRx; the next fill buffer

	rxDrops uint64

	coalesce     int
	sinceIRQ     int
	rxIRQsRaised uint64

	// Every transmit waits the same WireLatency, so completions fire in
	// submit order: one FIFO of in-flight packets and one completion
	// callback, bound at construction, serve every packet.
	txInFlight  hw.Queue[sent]
	txComplete  func()
	txDone      uint64
	transmitted []sent   // the wire tap: filled by completions
	wire        []Packet // returned by the last Transmitted
	txFree      [][]byte // buffers no caller can still see
}

// sent is a packet as the wire tap keeps it: the bytes its frame held,
// which is the frame's prefix cut at the packet length, and that length.
// The rest of the packet is zeros, so a packet from a frame that reads
// zero keeps no bytes at all.
type sent struct {
	prefix []byte
	n      int
	seq    uint64 // set on completion
}

// RxCompletion describes one received packet: which posted frame holds it
// and how many bytes were written.
type RxCompletion struct {
	Frame hw.FrameID
	Len   int
}

// WireLatency is every NIC's per-packet transmit serialisation latency.
const WireLatency hw.Cycles = 2000

// NICConfig sizes a NIC.
type NICConfig struct {
	RingSize int // rx descriptor ring entries (default 64)
	// CoalesceRx batches receive interrupts: the RX line is raised only
	// every n completions (default 1 = interrupt per packet). Drivers
	// must call FlushRxIRQ when going idle to claim the remainder —
	// the classic mitigation/latency trade-off, ablated in E9f.
	CoalesceRx int
}

// NewNIC attaches a NIC to machine m.
func NewNIC(m *hw.Machine, cfg NICConfig) *NIC {
	ring := cfg.RingSize
	if ring <= 0 {
		ring = 64
	}
	co := cfg.CoalesceRx
	if co <= 0 {
		co = 1
	}
	n := &NIC{
		m:        m,
		comp:     m.Rec.Intern("hw.nic"),
		rxRing:   make([]hw.FrameID, ring),
		coalesce: co,
	}
	n.txComplete = n.completeTx
	return n
}

// PostRxBuffer gives the NIC a frame to DMA a future packet into. It
// returns false if the descriptor ring is full.
func (n *NIC) PostRxBuffer(f hw.FrameID) bool {
	if n.rxCount == len(n.rxRing) {
		return false
	}
	n.rxRing[n.rxHead] = f
	n.rxHead = (n.rxHead + 1) % len(n.rxRing)
	n.rxCount++
	return true
}

// PostedBuffers returns how many RX buffers are currently posted.
func (n *NIC) PostedBuffers() int { return n.rxCount }

// Inject delivers a packet from "the wire" at the current instant: DMA into
// the next posted buffer and raise the RX IRQ. Without a posted buffer the
// packet is dropped, as on real hardware. Returns whether it was accepted.
func (n *NIC) Inject(data []byte) bool {
	if n.rxCount == 0 {
		n.rxDrops++
		return false
	}
	f := n.rxRing[n.rxTail]
	n.rxTail = (n.rxTail + 1) % len(n.rxRing)
	n.rxCount--
	nn := n.m.Mem.Write(f, 0, data)
	n.completed = append(n.completed, RxCompletion{Frame: f, Len: nn})
	words := (nn + 7) / 8
	n.m.CPU.Rec.Charge(uint64(n.m.Clock.Now()), trace.KDMATransfer, n.comp, uint64(words))
	n.sinceIRQ++
	if n.sinceIRQ >= n.coalesce {
		n.sinceIRQ = 0
		n.rxIRQsRaised++
		n.m.IRQ.Raise(RxIRQ)
	}
	return true
}

// FlushRxIRQ raises the RX interrupt if coalesced completions are waiting —
// the driver's going-idle poll.
func (n *NIC) FlushRxIRQ() {
	if n.sinceIRQ > 0 {
		n.sinceIRQ = 0
		n.rxIRQsRaised++
		n.m.IRQ.Raise(RxIRQ)
	}
}

// RxIRQsRaised returns how many receive interrupts the device has asserted.
func (n *NIC) RxIRQsRaised() uint64 { return n.rxIRQsRaised }

// InjectAt schedules a packet arrival at absolute time at.
func (n *NIC) InjectAt(at hw.Cycles, data []byte) {
	n.m.Events.Schedule(at, func() { n.Inject(data) })
}

// ReapRx returns and clears the completed receive descriptors. The
// returned slice is valid until the next ReapRx, which refills it: the
// device keeps two completion buffers and swaps them on each reap.
func (n *NIC) ReapRx() []RxCompletion {
	out := n.completed
	n.completed, n.reaped = n.reaped[:0], out
	return out
}

// Transmit queues a packet for transmission; completion raises the TX IRQ
// after the wire latency. The packet payload is read from frame f when
// Transmit is called, so the caller may free or reuse f at once. The NIC
// keeps only the bytes f holds, in a recycled buffer: a transmit from a
// frame that reads zero allocates nothing.
func (n *NIC) Transmit(f hw.FrameID, length int) {
	if length < 0 {
		panic(fmt.Sprintf("dev: negative tx length %d", length))
	}
	var prefix []byte
	if p := n.m.Mem.Bytes(f); len(p) > 0 {
		p = p[:min(len(p), length)]
		prefix = append(n.buffer(len(p))[:0], p...)
	}
	words := (length + 7) / 8
	n.m.CPU.Rec.Charge(uint64(n.m.Clock.Now()), trace.KDMATransfer, n.comp, uint64(words))
	n.txInFlight.Push(sent{prefix: prefix, n: length})
	n.m.Events.ScheduleAfter(WireLatency, n.txComplete)
}

// buffer returns a buffer of length bytes, recycled from one a caller of
// Transmitted can no longer see when one is big enough.
func (n *NIC) buffer(length int) []byte {
	if k := len(n.txFree); k > 0 {
		buf := n.txFree[k-1]
		n.txFree = n.txFree[:k-1]
		if cap(buf) >= length {
			return buf[:length]
		}
	}
	return make([]byte, length)
}

// completeTx is the wire-latency event of the oldest in-flight packet.
func (n *NIC) completeTx() {
	p, _ := n.txInFlight.Pop()
	n.txDone++
	p.seq = n.txDone
	n.transmitted = append(n.transmitted, p)
	n.m.IRQ.Raise(TxIRQ)
}

// Transmitted returns and clears the packets that completed transmission —
// the experiment harness's view of "the wire". Each packet's Data is its
// full length: the bytes its frame held, then zeros. The returned packets,
// and their payloads, are valid until the next Transmitted, which reuses
// them: the NIC builds the payloads in recycled buffers, and the packets
// in the slice it returned last time.
func (n *NIC) Transmitted() []Packet {
	for _, p := range n.wire {
		n.txFree = append(n.txFree, p.Data)
	}
	n.wire = n.wire[:0]
	for i, p := range n.transmitted {
		data := p.prefix
		if cap(data) < p.n {
			data = n.buffer(p.n)
			copy(data, p.prefix)
			if p.prefix != nil {
				n.txFree = append(n.txFree, p.prefix)
			}
		}
		data = data[:p.n]
		// A recycled buffer must read zero past the prefix, as a fresh
		// one does.
		clear(data[len(p.prefix):])
		n.wire = append(n.wire, Packet{Data: data, Seq: p.seq})
		n.transmitted[i] = sent{}
	}
	n.transmitted = n.transmitted[:0]
	return n.wire
}

// Stats returns drops and completed transmit count.
func (n *NIC) Stats() (rxDrops, txDone uint64) { return n.rxDrops, n.txDone }
