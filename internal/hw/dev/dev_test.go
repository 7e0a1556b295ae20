package dev

import (
	"bytes"
	"slices"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

func devMachine(t testing.TB) *hw.Machine {
	t.Helper()
	return hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 64})
}

func TestNICRxPath(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{RingSize: 4})
	f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	if !nic.PostRxBuffer(f) {
		t.Fatal("post failed")
	}
	if !nic.Inject([]byte("ping")) {
		t.Fatal("inject with posted buffer failed")
	}
	if !m.IRQ.Pending(1) {
		t.Fatal("rx IRQ not raised")
	}
	comps := nic.ReapRx()
	if len(comps) != 1 || comps[0].Len != 4 || comps[0].Frame != f {
		t.Fatalf("bad completion %+v", comps)
	}
	if got := m.Mem.Bytes(f); string(got) != "ping" {
		t.Fatal("DMA did not write packet data")
	}
	if len(nic.ReapRx()) != 0 {
		t.Fatal("reap did not clear completions")
	}
}

// TestReapedCompletionsSurviveNewArrivals: a reaped slice stays intact
// while the device completes more work; only the next reap reuses it.
func TestReapedCompletionsSurviveNewArrivals(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{RingSize: 4})
	drv := m.Rec.Intern("drv")
	for i := 0; i < 4; i++ {
		f, _ := m.Mem.Alloc(drv)
		nic.PostRxBuffer(f)
	}
	nic.Inject([]byte("a"))
	nic.Inject([]byte("bb"))
	first := nic.ReapRx()
	nic.Inject([]byte("ccc"))
	if len(first) != 2 || first[0].Len != 1 || first[1].Len != 2 {
		t.Fatalf("reaped completions changed under a new arrival: %+v", first)
	}
	if second := nic.ReapRx(); len(second) != 1 || second[0].Len != 3 {
		t.Fatalf("second reap %+v, want one 3-byte completion", second)
	}

	d := NewDisk(m, DiskConfig{Latency: 10})
	f, _ := m.Mem.Alloc(drv)
	d.Submit(DiskReq{Op: DiskRead, Block: 1, Frame: f, Tag: 1})
	m.Events.RunUntilIdle(0)
	done := d.Reap()
	d.Submit(DiskReq{Op: DiskRead, Block: 2, Frame: f, Tag: 2})
	m.Events.RunUntilIdle(0)
	if len(done) != 1 || done[0].Req.Tag != 1 {
		t.Fatalf("reaped disk completions changed under a new one: %+v", done)
	}
	if next := d.Reap(); len(next) != 1 || next[0].Req.Tag != 2 {
		t.Fatalf("second disk reap %+v, want tag 2", next)
	}
}

// TestNICSteadyStateAllocatesNothing: the NIC keeps its completion buffers
// between reaps, so receiving into recycled buffers allocates nothing.
func TestNICSteadyStateAllocatesNothing(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{RingSize: 4})
	drv := m.Rec.Intern("drv")
	for i := 0; i < 4; i++ {
		f, _ := m.Mem.Alloc(drv)
		nic.PostRxBuffer(f)
	}
	pkt := make([]byte, 1500)
	received := 0
	cycle := func() {
		for i := 0; i < 4; i++ {
			nic.Inject(pkt)
		}
		for _, c := range nic.ReapRx() {
			received++
			nic.PostRxBuffer(c.Frame)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Inject + ReapRx allocates %.1f times per 4 packets", n)
	}
	if received != 4*102 {
		t.Fatalf("received %d packets, want %d", received, 4*102)
	}
}

func TestNICDropWithoutBuffers(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{})
	if nic.Inject([]byte("x")) {
		t.Fatal("packet accepted with no posted buffer")
	}
	drops, _ := nic.Stats()
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
}

func TestNICRingFull(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{RingSize: 2})
	f1, _ := m.Mem.Alloc(m.Rec.Intern("d"))
	f2, _ := m.Mem.Alloc(m.Rec.Intern("d"))
	f3, _ := m.Mem.Alloc(m.Rec.Intern("d"))
	if !nic.PostRxBuffer(f1) || !nic.PostRxBuffer(f2) {
		t.Fatal("posts failed")
	}
	if nic.PostRxBuffer(f3) {
		t.Fatal("post succeeded on full ring")
	}
}

func TestNICTxCompletes(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{})
	f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	m.Mem.Write(f, 0, []byte("pong"))
	nic.Transmit(f, 4)
	m.Events.RunUntil(WireLatency - 1)
	if len(nic.Transmitted()) != 0 {
		t.Fatal("tx completed before wire latency")
	}
	m.Events.RunUntilIdle(0)
	if m.Clock.Now() != WireLatency {
		t.Fatalf("tx completed at %d, want the wire latency %d", m.Clock.Now(), WireLatency)
	}
	pkts := nic.Transmitted()
	if len(pkts) != 1 || !bytes.Equal(pkts[0].Data, []byte("pong")) {
		t.Fatalf("bad tx %+v", pkts)
	}
	if !m.IRQ.Pending(2) {
		t.Fatal("tx IRQ not raised")
	}
}

func TestNICInjectAt(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{})
	f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	nic.PostRxBuffer(f)
	nic.InjectAt(1000, []byte("later"))
	m.Events.RunUntilIdle(0)
	if m.Clock.Now() != 1000 {
		t.Fatalf("clock = %d, want 1000", m.Clock.Now())
	}
	if len(nic.ReapRx()) != 1 {
		t.Fatal("scheduled packet not delivered")
	}
}

func TestNICCoalescing(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{RingSize: 16, CoalesceRx: 4})
	for i := 0; i < 16; i++ {
		f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
		nic.PostRxBuffer(f)
	}
	for i := 0; i < 6; i++ {
		nic.Inject([]byte{byte(i)})
	}
	// 6 packets at batch 4: one IRQ at packet 4, two completions waiting.
	if got := nic.RxIRQsRaised(); got != 1 {
		t.Fatalf("irqs = %d, want 1", got)
	}
	nic.FlushRxIRQ()
	if got := nic.RxIRQsRaised(); got != 2 {
		t.Fatalf("irqs after flush = %d, want 2", got)
	}
	nic.FlushRxIRQ() // nothing pending: no-op
	if got := nic.RxIRQsRaised(); got != 2 {
		t.Fatal("idle flush raised an interrupt")
	}
	if len(nic.ReapRx()) != 6 {
		t.Fatal("completions lost under coalescing")
	}
}

func TestDiskWriteReadRoundTrip(t *testing.T) {
	m := devMachine(t)
	d := NewDisk(m, DiskConfig{Latency: 100})
	fw, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	fr, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	m.Mem.Write(fw, 0, []byte("block-7-data"))
	d.Submit(DiskReq{Op: DiskWrite, Block: 7, Frame: fw, Tag: 1})
	m.Events.RunUntilIdle(0)
	d.Submit(DiskReq{Op: DiskRead, Block: 7, Frame: fr, Tag: 2})
	m.Events.RunUntilIdle(0)
	comps := d.Reap()
	if len(comps) != 2 || !comps[0].OK || !comps[1].OK {
		t.Fatalf("completions %+v", comps)
	}
	got := make([]byte, 12)
	if m.Mem.Read(fr, 0, got); string(got) != "block-7-data" {
		t.Fatal("read did not return written data")
	}
}

func TestDiskReadUnwrittenIsZero(t *testing.T) {
	m := devMachine(t)
	d := NewDisk(m, DiskConfig{})
	f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	m.Mem.Write(f, 0, []byte{0xFF})
	d.Submit(DiskReq{Op: DiskRead, Block: 1, Frame: f})
	m.Events.RunUntilIdle(0)
	got := []byte{0xEE}
	if m.Mem.Read(f, 0, got); got[0] != 0 {
		t.Fatal("unwritten block must read as zeros")
	}
}

func TestDiskOutOfRange(t *testing.T) {
	m := devMachine(t)
	d := NewDisk(m, DiskConfig{Blocks: 8})
	f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	d.Submit(DiskReq{Op: DiskRead, Block: 8, Frame: f})
	m.Events.RunUntilIdle(0)
	comps := d.Reap()
	if len(comps) != 1 || comps[0].OK {
		t.Fatal("out-of-range request must complete with OK=false")
	}
	if !m.IRQ.Pending(3) {
		t.Fatal("failed request must still interrupt")
	}
}

func TestDiskLatencyOrdering(t *testing.T) {
	m := devMachine(t)
	d := NewDisk(m, DiskConfig{Latency: 100})
	f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	d.Submit(DiskReq{Op: DiskWrite, Block: 1, Frame: f, Tag: 1})
	m.Events.RunUntil(50)
	d.Submit(DiskReq{Op: DiskWrite, Block: 2, Frame: f, Tag: 2})
	if d.InFlight() != 2 {
		t.Fatalf("in flight = %d, want 2", d.InFlight())
	}
	m.Events.RunUntilIdle(0)
	comps := d.Reap()
	if comps[0].Req.Tag != 1 || comps[1].Req.Tag != 2 {
		t.Fatal("completions out of order")
	}
	if d.InFlight() != 0 {
		t.Fatal("in-flight not drained")
	}
}

func TestDiskPeekBlock(t *testing.T) {
	m := devMachine(t)
	d := NewDisk(m, DiskConfig{})
	if d.PeekBlock(5) != nil {
		t.Fatal("unwritten block should peek nil")
	}
	f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	m.Mem.Write(f, 0, []byte("abc"))
	d.Submit(DiskReq{Op: DiskWrite, Block: 5, Frame: f})
	m.Events.RunUntilIdle(0)
	got := d.PeekBlock(5)
	if string(got[:3]) != "abc" {
		t.Fatal("peek returned wrong data")
	}
	got[0] = 'z' // must be a copy
	if string(d.PeekBlock(5)[:3]) != "abc" {
		t.Fatal("PeekBlock leaked internal storage")
	}
}

// TestNICTransmitAllocatesNothing: a warm NIC transmits from recycled
// payload buffers through one bound completion callback, so a burst plus
// its Transmitted drain allocates nothing.
func TestNICTransmitAllocatesNothing(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{})
	f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	m.Mem.Write(f, 0, bytes.Repeat([]byte{0x5A}, 1500))
	cycle := func() {
		for i := 0; i < 4; i++ {
			nic.Transmit(f, 1500)
		}
		m.Events.RunUntilIdle(0)
		if n := len(nic.Transmitted()); n != 4 {
			t.Fatalf("wire saw %d packets, sent 4", n)
		}
	}
	// The second burst still allocates: the first one's payloads are the
	// caller's until the next Transmitted.
	cycle()
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Transmit + Transmitted allocates %.1f times per 4 packets", n)
	}
}

// TestDiskSubmitAllocatesNothing: a warm disk completes requests through
// one bound callback and keeps each block's stored buffer, so a write and
// a read of a block written before allocate nothing.
func TestDiskSubmitAllocatesNothing(t *testing.T) {
	m := devMachine(t)
	d := NewDisk(m, DiskConfig{Latency: 100})
	drv := m.Rec.Intern("drv")
	fw, _ := m.Mem.Alloc(drv)
	fr, _ := m.Mem.Alloc(drv)
	m.Mem.Write(fw, 0, bytes.Repeat([]byte{0xA5}, int(m.Mem.PageSize())))
	cycle := func() {
		d.Submit(DiskReq{Op: DiskWrite, Block: 1, Frame: fw, Tag: 1})
		d.Submit(DiskReq{Op: DiskRead, Block: 1, Frame: fr, Tag: 2})
		m.Events.RunUntilIdle(0)
		if n := len(d.Reap()); n != 2 {
			t.Fatalf("%d completions, want 2", n)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Submit + Reap allocates %.1f times per write and read", n)
	}
}

// TestNICRecycledPayloadsReadFresh: a payload buffer recycled by
// Transmitted reads exactly as a fresh one would, whatever it held and
// whatever its last owner wrote into it: a short packet after a full-page
// one, and a packet longer than the page, whose bytes past the page end
// read zero. Sequence numbers stay in submit order.
func TestNICRecycledPayloadsReadFresh(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{})
	drv := m.Rec.Intern("drv")
	page := int(m.Mem.PageSize())
	full, _ := m.Mem.Alloc(drv)
	short, _ := m.Mem.Alloc(drv)
	m.Mem.Write(full, 0, bytes.Repeat([]byte{0xAA}, page))
	m.Mem.Write(short, 0, []byte("hi"))
	seq := uint64(0)
	send := func(f hw.FrameID, lengths ...int) []Packet {
		t.Helper()
		for _, n := range lengths {
			nic.Transmit(f, n)
		}
		m.Events.RunUntilIdle(0)
		pkts := nic.Transmitted()
		if len(pkts) != len(lengths) {
			t.Fatalf("wire saw %d packets, sent %d", len(pkts), len(lengths))
		}
		for i, p := range pkts {
			if seq++; p.Seq != seq {
				t.Fatalf("packet %d has Seq %d, want %d", i, p.Seq, seq)
			}
		}
		return pkts
	}
	// A caller owns the packets until its next Transmitted, and may write
	// into them.
	for _, p := range send(full, page, page+904) {
		for i := range p.Data {
			p.Data[i] = 0xFF
		}
	}
	if len(nic.Transmitted()) != 0 { // recycles the two payloads above
		t.Fatal("nothing was sent, yet the wire saw packets")
	}
	lengths := []int{page + 904, 100}
	for i, p := range send(short, lengths...) {
		want := make([]byte, lengths[i])
		copy(want, "hi")
		if !bytes.Equal(p.Data, want) {
			t.Errorf("%d-byte packet from a recycled buffer differs from a fresh one", lengths[i])
		}
	}
}

// TestDiskCompletesInSubmitOrder interleaves submits with time advancing:
// each request completes exactly one latency after its own submit, in
// submit order, carrying its own request.
func TestDiskCompletesInSubmitOrder(t *testing.T) {
	m := devMachine(t)
	d := NewDisk(m, DiskConfig{Latency: 100})
	f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	var done []uint64
	runTo := func(at hw.Cycles, want ...uint64) {
		t.Helper()
		m.Events.RunUntil(at)
		for _, c := range d.Reap() {
			if c.Req.Block != 10*c.Req.Tag {
				t.Fatalf("completion of tag %d carries block %d", c.Req.Tag, c.Req.Block)
			}
			done = append(done, c.Req.Tag)
		}
		if !slices.Equal(done, want) {
			t.Fatalf("at cycle %d completed %v, want %v", at, done, want)
		}
	}
	submit := func(tag uint64) {
		d.Submit(DiskReq{Op: DiskWrite, Block: 10 * tag, Frame: f, Tag: tag})
	}
	submit(1) // due at 100
	runTo(30)
	submit(2) // due at 130
	runTo(120, 1)
	submit(3) // both due at 220
	submit(4)
	runTo(129, 1)
	runTo(130, 1, 2)
	runTo(219, 1, 2)
	runTo(220, 1, 2, 3, 4)
	if d.InFlight() != 0 {
		t.Fatalf("in flight = %d after every completion", d.InFlight())
	}
}

// TestZeroFrameTransmitAllocatesNothing: the wire tap keeps only the bytes
// a packet's frame held, so 200 transmits from a frame that reads zero,
// which nobody drains, allocate nothing once the tap's record list has
// grown to hold them.
func TestZeroFrameTransmitAllocatesNothing(t *testing.T) {
	const packets = 200
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{})
	f, _ := m.Mem.Alloc(m.Rec.Intern("drv"))
	m.Mem.Write(f, 0, make([]byte, 1500))
	burst := func() {
		for range packets {
			nic.Transmit(f, 1500)
		}
		m.Events.RunUntilIdle(0)
	}
	// Grow the in-flight queue, the event queue and the tap's record list
	// to hold two bursts, then drain the tap. AllocsPerRun's warm-up run
	// and its measured run leave two bursts undrained.
	burst()
	burst()
	nic.Transmitted()
	if n := testing.AllocsPerRun(1, burst); n != 0 {
		t.Errorf("%d undrained transmits from a zero frame allocate %.0f times", packets, n)
	}
	if _, done := nic.Stats(); done != 4*packets {
		t.Fatalf("%d transmits completed, want %d", done, 4*packets)
	}
}

// TestNICWireTapKeepsPrefixes: packets that nobody drains while they pile
// up, from a zero frame, a short-prefix frame and a full one, come back
// from Transmitted at full length, prefix then zeros, in submit order.
func TestNICWireTapKeepsPrefixes(t *testing.T) {
	m := devMachine(t)
	nic := NewNIC(m, NICConfig{})
	drv := m.Rec.Intern("drv")
	page := int(m.Mem.PageSize())
	zero, short, full := mustAllocFrame(t, m, drv), mustAllocFrame(t, m, drv), mustAllocFrame(t, m, drv)
	m.Mem.Write(short, 0, []byte("hi"))
	m.Mem.Write(full, 0, bytes.Repeat([]byte{0xAB}, page))
	type sentPkt struct {
		f hw.FrameID
		n int
	}
	var sends []sentPkt
	for round := 0; round < 3; round++ {
		for _, p := range []sentPkt{{zero, 1500}, {short, 1}, {short, 600}, {full, 1500}, {full, page + 100}, {zero, 0}} {
			nic.Transmit(p.f, p.n)
			sends = append(sends, p)
		}
		m.Events.RunUntilIdle(0)
	}
	// Rewriting a frame after its transmit does not reach the tap.
	m.Mem.Write(zero, 0, []byte{1})
	pkts := nic.Transmitted()
	if len(pkts) != len(sends) {
		t.Fatalf("wire saw %d packets, sent %d", len(pkts), len(sends))
	}
	for i, p := range pkts {
		s := sends[i]
		want := make([]byte, s.n)
		switch s.f {
		case short:
			copy(want, "hi")
		case full:
			copy(want, bytes.Repeat([]byte{0xAB}, page))
		}
		if p.Seq != uint64(i+1) || !bytes.Equal(p.Data, want) {
			t.Errorf("packet %d: Seq %d, %d bytes %.8x…; want Seq %d, %d bytes %.8x…", i, p.Seq, len(p.Data), p.Data, i+1, s.n, want)
		}
	}
}

func mustAllocFrame(t *testing.T, m *hw.Machine, owner trace.Comp) hw.FrameID {
	t.Helper()
	f, err := m.Mem.Alloc(owner)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
