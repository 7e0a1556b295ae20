package vmmos

import (
	"bytes"
	"errors"
	"testing"

	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// stack is a complete Xen-like software stack: hypervisor, Dom0 with NIC
// and disk, and one guest with net+block frontends.
type stack struct {
	m     *hw.Machine
	h     *vmm.Hypervisor
	dd    *DriverDomain
	nic   *dev.NIC
	disk  *dev.Disk
	guest *GuestKernel
	proc  *Process
}

func newStack(t testing.TB, mode RxMode) *stack {
	t.Helper()
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 2048})
	h, d0, err := vmm.New(m, 128)
	if err != nil {
		t.Fatal(err)
	}
	nic := dev.NewNIC(m, dev.NICConfig{RingSize: 64})
	disk := dev.NewDisk(m, dev.DiskConfig{Latency: 5000})
	dd, err := NewDriverDomain(h, d0, nic, disk)
	if err != nil {
		t.Fatal(err)
	}
	dd.Mode = mode
	dU, err := h.CreateDomain("domU1", 128)
	if err != nil {
		t.Fatal(err)
	}
	gk := NewGuestKernel(h, dU)
	if _, err := ConnectNet(dd, gk); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectBlk(dd, gk, 256); err != nil {
		t.Fatal(err)
	}
	proc := gk.Spawn("app")
	return &stack{m: m, h: h, dd: dd, nic: nic, disk: disk, guest: gk, proc: proc}
}

// pump delivers in-flight device work.
func (s *stack) pump() { s.h.PumpIO(64) }

func TestSyscallGetPID(t *testing.T) {
	s := newStack(t, RxFlip)
	snap := s.m.Rec.Snapshot()
	ret, err := s.guest.Syscall(s.proc.PID, guestos.SysGetPID)
	if err != nil {
		t.Fatal(err)
	}
	if guestos.PID(ret[0]) != s.proc.PID {
		t.Fatalf("getpid = %d, want %d", ret[0], s.proc.PID)
	}
	if total := s.m.Rec.CountsSince(snap, trace.KGuestUserToKernel); total != 1 {
		t.Fatalf("syscalls = %d, want 1", total)
	}
}

func TestSyscallUnknownIsENOSYS(t *testing.T) {
	s := newStack(t, RxFlip)
	ret, err := s.guest.Syscall(s.proc.PID, 999)
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != guestos.Fail {
		t.Fatal("unknown syscall should return ENOSYS marker")
	}
}

// TestSyscallBadProcess: PID 0, the PID one past the last spawned and a
// far one name no process.
func TestSyscallBadProcess(t *testing.T) {
	s := newStack(t, RxFlip)
	for _, pid := range []guestos.PID{0, s.proc.PID + 1, 999} {
		if _, err := s.guest.Syscall(pid, guestos.SysGetPID); !errors.Is(err, guestos.ErrNoSuchProcess) {
			t.Errorf("pid %d: err = %v, want ErrNoSuchProcess", pid, err)
		}
		if p := s.guest.Process(pid); p != nil {
			t.Errorf("Process(%d) = %+v, want nil", pid, p)
		}
	}
}

// TestSyscallWithoutArgumentRefused: a call that reads an argument
// replies Fail without one, and so does getpid when the trap carries no
// words at all, so the guest kernel cannot name the caller; the kernel
// keeps serving.
func TestSyscallWithoutArgumentRefused(t *testing.T) {
	s := newStack(t, RxFlip)
	for _, no := range []uint32{guestos.SysWrite, guestos.SysNetSend} {
		ret, err := s.guest.Syscall(s.proc.PID, no)
		if err != nil || len(ret) != 1 || ret[0] != guestos.Fail {
			t.Errorf("syscall %d without an argument = %v, %v; want [Fail]", no, ret, err)
		}
	}
	ret, err := s.h.GuestSyscall(s.guest.Dom.ID, guestos.SysGetPID, nil)
	if err != nil || len(ret) != 1 || ret[0] != guestos.Fail {
		t.Errorf("getpid trap without a PID = %v, %v; want [Fail]", ret, err)
	}
	if ret, err := s.guest.Syscall(s.proc.PID, guestos.SysGetPID); err != nil || guestos.PID(ret[0]) != s.proc.PID {
		t.Fatalf("getpid after refused calls = %v, %v", ret, err)
	}
}

func TestConsoleWrite(t *testing.T) {
	s := newStack(t, RxFlip)
	for _, b := range []byte("hi") {
		if _, err := s.guest.Syscall(s.proc.PID, guestos.SysWrite, uint64(b)); err != nil {
			t.Fatal(err)
		}
	}
	if string(s.guest.Console()) != "hi" {
		t.Fatalf("console = %q", s.guest.Console())
	}
}

func injectPacket(s *stack, size int) {
	pkt := make([]byte, size)
	// First byte selects the destination guest (index 0).
	s.nic.Inject(pkt)
	s.m.IRQ.DispatchPending(s.m.Rec.Intern(vmm.HypervisorComponent))
}

func TestNetRxFlipEndToEnd(t *testing.T) {
	s := newStack(t, RxFlip)
	injectPacket(s, 1500)
	s.pump()
	if s.guest.PendingRx() != 1 {
		t.Fatalf("pending = %d, want 1", s.guest.PendingRx())
	}
	ret, err := s.guest.Syscall(s.proc.PID, guestos.SysNetRecv)
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != 1500 {
		t.Fatalf("recv len = %d, want 1500", ret[0])
	}
	if flips, copies := s.m.Rec.Counts(trace.KPageFlip), s.m.Rec.Counts(trace.KGrantCopy); flips != 1 || copies != 0 {
		t.Fatalf("flips/copies = %d/%d, want 1/0", flips, copies)
	}
	if s.guest.PendingRx() != 0 {
		t.Fatalf("pending = %d after recv, want 0", s.guest.PendingRx())
	}
}

func TestNetRxCopyEndToEnd(t *testing.T) {
	s := newStack(t, RxCopy)
	injectPacket(s, 800)
	s.pump()
	if s.guest.PendingRx() != 1 {
		t.Fatalf("pending = %d, want 1", s.guest.PendingRx())
	}
	if flips, copies := s.m.Rec.Counts(trace.KPageFlip), s.m.Rec.Counts(trace.KGrantCopy); flips != 0 || copies != 1 {
		t.Fatalf("flips/copies = %d/%d, want 0/1", flips, copies)
	}
}

func TestNetRxBurstConservesMemory(t *testing.T) {
	s := newStack(t, RxFlip)
	free0 := s.m.Mem.FreeFrames()
	for i := 0; i < 50; i++ {
		injectPacket(s, 100)
		s.pump()
	}
	for {
		ret, err := s.guest.Syscall(s.proc.PID, guestos.SysNetRecv)
		if err != nil {
			t.Fatal(err)
		}
		if ret[0] == guestos.Fail {
			break
		}
	}
	// The flip path frees consumed pages and dom0 re-allocates its pool:
	// steady state must not leak frames (tolerate pool-depth variation).
	free1 := s.m.Mem.FreeFrames()
	if free0-free1 > 40 {
		t.Fatalf("frame leak: free %d -> %d", free0, free1)
	}
	if s.guest.Dom.Dead {
		t.Fatal("guest died during burst")
	}
}

func TestNetRxEvtchnPerPacket(t *testing.T) {
	s := newStack(t, RxFlip)
	ev0 := s.m.Rec.Counts(trace.KEvtchnSend)
	for i := 0; i < 10; i++ {
		injectPacket(s, 64)
		s.pump()
	}
	ev1 := s.m.Rec.Counts(trace.KEvtchnSend)
	if ev1-ev0 != 10 {
		t.Fatalf("evtchn sends = %d, want 10 (one per packet)", ev1-ev0)
	}
}

func TestNetTxEndToEnd(t *testing.T) {
	s := newStack(t, RxFlip)
	snap := s.m.Rec.Snapshot()
	ret, err := s.guest.Syscall(s.proc.PID, guestos.SysNetSend, 900)
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != 900 {
		t.Fatalf("send returned %d", ret[0])
	}
	s.pump()
	pkts := s.nic.Transmitted()
	if len(pkts) != 1 || len(pkts[0].Data) != 900 {
		t.Fatalf("wire saw %d packets", len(pkts))
	}
	// Netback maps each granted TX page once.
	if maps := s.m.Rec.CountsSince(snap, trace.KGrantMap); maps != 1 {
		t.Fatalf("netback mapped %d TX pages, want 1", maps)
	}
}

func TestNetSendToDeadDom0Fails(t *testing.T) {
	s := newStack(t, RxFlip)
	s.h.DestroyDomain(vmm.Dom0)
	err := s.guest.Net.Send([]byte("x"))
	if !errors.Is(err, ErrBackendDead) {
		t.Fatalf("err = %v, want ErrBackendDead", err)
	}
	// Guest itself survives — the blast radius is the service dependency.
	if !s.h.Alive(s.guest.Dom.ID) {
		t.Fatal("guest killed by dom0 death")
	}
}

// blockBackends are the two services a guest's BlkFront connects to:
// Dom0's blkback, serving a partition of the physical disk, and a Parallax
// virtual disk written through to Dom0. The block frontend tests run over
// both. connect returns the frontend and its disk size in blocks.
var blockBackends = []struct {
	name    string
	connect func(t *testing.T, s *stack) (*BlkFront, uint64)
}{
	{"blkback", func(t *testing.T, s *stack) (*BlkFront, uint64) { return s.guest.Blk, 256 }},
	{"parallax", func(t *testing.T, s *stack) (*BlkFront, uint64) {
		_, bf := attachParallax(t, s)
		return bf, 128
	}},
}

// attachParallax boots Parallax in its own domain, writing through to
// Dom0's disk, and attaches a fresh client guest to a 128-block virtual
// disk.
func attachParallax(t *testing.T, s *stack) (*Parallax, *BlkFront) {
	t.Helper()
	pxDom, err := s.h.CreateDomain("parallax", 128)
	if err != nil {
		t.Fatal(err)
	}
	px, err := NewParallax(s.h, pxDom, s.dd, 512)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := s.h.CreateDomain("client", 64)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := px.AttachClient(NewGuestKernel(s.h, cd), 128)
	if err != nil {
		t.Fatal(err)
	}
	return px, bf
}

// forEachBlockBackend runs check on a fresh stack and frontend for each
// backend.
func forEachBlockBackend(t *testing.T, check func(t *testing.T, s *stack, bf *BlkFront, blocks uint64)) {
	for _, b := range blockBackends {
		t.Run(b.name, func(t *testing.T) {
			s := newStack(t, RxFlip)
			bf, blocks := b.connect(t, s)
			check(t, s, bf, blocks)
		})
	}
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestBlockWriteReadRoundTrip: a read returns a whole page, the written
// bytes followed by zeros; an unwritten block reads as zeros.
func TestBlockWriteReadRoundTrip(t *testing.T) {
	forEachBlockBackend(t, func(t *testing.T, s *stack, bf *BlkFront, _ uint64) {
		want := []byte("persistent-data-123")
		if err := bf.Write(7, want); err != nil {
			t.Fatal(err)
		}
		got, err := bf.Read(7)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(got)) != s.m.Mem.PageSize() || !bytes.Equal(got[:len(want)], want) || !allZero(got[len(want):]) {
			t.Fatalf("read back %d bytes starting %q, want a page of %q and zeros", len(got), got[:len(want)], want)
		}
		z, err := bf.Read(100)
		if err != nil {
			t.Fatal(err)
		}
		if !allZero(z) {
			t.Fatal("unwritten block not zero")
		}
	})
}

func TestBlockPartitionIsolation(t *testing.T) {
	s := newStack(t, RxFlip)
	// Second guest with its own partition.
	d2, err := s.h.CreateDomain("domU2", 64)
	if err != nil {
		t.Fatal(err)
	}
	gk2 := NewGuestKernel(s.h, d2)
	if _, err := ConnectBlk(s.dd, gk2, 256); err != nil {
		t.Fatal(err)
	}
	if err := s.guest.Blk.Write(0, []byte("guest1")); err != nil {
		t.Fatal(err)
	}
	if err := gk2.Blk.Write(0, []byte("guest2")); err != nil {
		t.Fatal(err)
	}
	g1, _ := s.guest.Blk.Read(0)
	g2, _ := gk2.Blk.Read(0)
	if string(g1[:6]) != "guest1" || string(g2[:6]) != "guest2" {
		t.Fatal("partitions overlap — block isolation broken")
	}
}

// TestBlockOutOfRange: a request past the end of the frontend's disk
// fails with ErrIOTimeout, and the frontend keeps serving.
func TestBlockOutOfRange(t *testing.T) {
	forEachBlockBackend(t, func(t *testing.T, s *stack, bf *BlkFront, blocks uint64) {
		if _, err := bf.Read(blocks); !errors.Is(err, ErrIOTimeout) {
			t.Fatalf("out-of-range read err = %v, want ErrIOTimeout", err)
		}
		if err := bf.Write(blocks, []byte("x")); !errors.Is(err, ErrIOTimeout) {
			t.Fatalf("out-of-range write err = %v, want ErrIOTimeout", err)
		}
		if err := bf.Write(blocks-1, []byte("last")); err != nil {
			t.Fatalf("last block after refused requests: %v", err)
		}
		got, err := bf.Read(blocks - 1)
		if err != nil || string(got[:4]) != "last" {
			t.Fatalf("last block reads %q, %v after refused requests", got[:4], err)
		}
	})
}

// TestBlockBackendDestroyed: once the backend's domain is gone, requests
// fail with ErrBackendDead, and the guest itself survives.
// TestBlkbackCompletesEachRequestInFlight: the disk completes requests in
// submit order, and blkback finishes the oldest request it has in flight
// on each completion. Two requests go in flight in one kick, one of them
// to a block inside the guest's partition but past the end of the
// physical disk. Each frontend record must get its own outcome, in either
// order.
func TestBlkbackCompletesEachRequestInFlight(t *testing.T) {
	for _, badFirst := range []bool{false, true} {
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512})
		h, d0, err := vmm.New(m, 64)
		if err != nil {
			t.Fatal(err)
		}
		disk := dev.NewDisk(m, dev.DiskConfig{Blocks: 8, Latency: 5000})
		dd, err := NewDriverDomain(h, d0, nil, disk)
		if err != nil {
			t.Fatal(err)
		}
		dU, err := h.CreateDomain("domU1", 64)
		if err != nil {
			t.Fatal(err)
		}
		gk := NewGuestKernel(h, dU)
		bf, err := ConnectBlk(dd, gk, 16)
		if err != nil {
			t.Fatal(err)
		}
		m.Mem.Write(bf.buf, 0, []byte("on the disk"))
		good := &blkReq{write: true, block: 3, frame: bf.buf}
		past := &blkReq{write: true, block: 12, frame: bf.buf} // partition block 12, disk block 12 of 8
		reqs := []*blkReq{good, past}
		if badFirst {
			reqs[0], reqs[1] = past, good
		}
		for _, r := range reqs {
			bf.ring.reqs.push(r)
		}
		if err := h.NotifyChannel(dU.ID, bf.ring.frontPort); err != nil {
			t.Fatal(err)
		}
		if n := disk.InFlight(); n != 2 {
			t.Fatalf("badFirst=%v: %d requests on the disk, want 2", badFirst, n)
		}
		h.PumpIO(64)
		if !good.done || !good.ok || !past.done || past.ok {
			t.Fatalf("badFirst=%v: in-range request done=%v ok=%v, past-the-disk request done=%v ok=%v; want both done, only the first ok",
				badFirst, good.done, good.ok, past.done, past.ok)
		}
		if got := disk.PeekBlock(3); !bytes.HasPrefix(got, []byte("on the disk")) {
			t.Fatalf("badFirst=%v: disk block 3 holds %q", badFirst, bytes.TrimRight(got, "\x00"))
		}
		if n := dd.inflight.Len(); n != 0 {
			t.Fatalf("badFirst=%v: blkback still holds %d requests", badFirst, n)
		}
	}
}

func TestBlockBackendDestroyed(t *testing.T) {
	forEachBlockBackend(t, func(t *testing.T, s *stack, bf *BlkFront, _ uint64) {
		if err := bf.Write(1, []byte("pre-crash")); err != nil {
			t.Fatal(err)
		}
		if err := s.h.DestroyDomain(bf.back); err != nil {
			t.Fatal(err)
		}
		if err := bf.Write(2, []byte("post-crash")); !errors.Is(err, ErrBackendDead) {
			t.Fatalf("write err = %v, want ErrBackendDead", err)
		}
		if _, err := bf.Read(1); !errors.Is(err, ErrBackendDead) {
			t.Fatalf("read err = %v, want ErrBackendDead", err)
		}
		if !s.h.Alive(bf.gk.Dom.ID) {
			t.Fatal("guest died with its backend")
		}
	})
}

// TestBlockReadReusesBuffer pins Read's lifetime: the page it returns is
// the frontend's own buffer, overwritten by its next Read.
func TestBlockReadReusesBuffer(t *testing.T) {
	forEachBlockBackend(t, func(t *testing.T, s *stack, bf *BlkFront, _ uint64) {
		if err := bf.Write(1, []byte("one")); err != nil {
			t.Fatal(err)
		}
		if err := bf.Write(2, []byte("two")); err != nil {
			t.Fatal(err)
		}
		first, err := bf.Read(1)
		if err != nil {
			t.Fatal(err)
		}
		second, err := bf.Read(2)
		if err != nil {
			t.Fatal(err)
		}
		if &first[0] != &second[0] || string(first[:3]) != "two" {
			t.Fatalf("second Read returned a fresh page; the first still reads %q", first[:3])
		}
	})
}

// TestParallaxServesClients: Parallax serves every client request itself,
// from its block map.
func TestParallaxServesClients(t *testing.T) {
	s := newStack(t, RxFlip)
	_, bf := attachParallax(t, s)
	snap := s.m.Rec.Snapshot()
	if err := bf.Write(5, []byte("via-parallax")); err != nil {
		t.Fatal(err)
	}
	got, err := bf.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:12]) != "via-parallax" {
		t.Fatalf("read %q", got[:12])
	}
	// The write goes through to the disk; the read is served from the
	// block map and touches the disk not at all.
	if got := s.m.Rec.CountsSince(snap, trace.KDMATransfer); got != 1 {
		t.Fatalf("disk served %d blocks, want 1", got)
	}
}

func TestParallaxCopyOnWriteSnapshot(t *testing.T) {
	s := newStack(t, RxFlip)
	pxDom, _ := s.h.CreateDomain("parallax", 128)
	px, err := NewParallax(s.h, pxDom, nil, 0) // in-memory only
	if err != nil {
		t.Fatal(err)
	}
	cd, _ := s.h.CreateDomain("client", 64)
	cgk := NewGuestKernel(s.h, cd)
	px.AttachClient(cgk, 128)

	cgk.Blk.Write(1, []byte("v1"))
	n, err := px.Snapshot(cd.ID)
	if err != nil || n != 1 {
		t.Fatalf("snapshot captured %d blocks, err %v", n, err)
	}
	cgk.Blk.Write(1, []byte("v2"))
	got, _ := cgk.Blk.Read(1)
	if string(got[:2]) != "v2" {
		t.Fatal("live view must see post-snapshot write")
	}
	if snap := px.SnapshotRead(cd.ID, 1); string(snap[:2]) != "v1" {
		t.Fatal("snapshot must preserve pre-snapshot data")
	}
	// Reading an untouched block falls through to the snapshot.
	cgk.Blk.Write(2, []byte("x"))
	px.Snapshot(cd.ID)
	got, _ = cgk.Blk.Read(2)
	if string(got[:1]) != "x" {
		t.Fatal("read-through to snapshot failed")
	}
}

func TestParallaxDeathBlastRadius(t *testing.T) {
	// The E4 scenario from §3.1: Parallax fails; its clients lose
	// storage (TestBlockBackendDestroyed); the monitor, Dom0 and
	// non-client domains are unaffected.
	s := newStack(t, RxFlip)
	_, bf := attachParallax(t, s)
	if err := bf.Write(1, []byte("pre-crash")); err != nil {
		t.Fatal(err)
	}

	s.h.DestroyDomain(bf.back)

	if err := bf.Write(2, []byte("post-crash")); !errors.Is(err, ErrBackendDead) {
		t.Fatalf("client write err = %v, want ErrBackendDead", err)
	}
	// Dom0's own storage path is unaffected.
	if err := s.guest.Blk.Write(9, []byte("still-works")); err != nil {
		t.Fatalf("unrelated guest's storage broken: %v", err)
	}
	if !s.h.Alive(vmm.Dom0) {
		t.Fatal("dom0 harmed")
	}
}

func TestParallaxOnDom0Consolidated(t *testing.T) {
	// The super-VM arrangement: Parallax hosted by Dom0 itself, with
	// persistence looping back through Dom0's own blkback.
	s := newStack(t, RxFlip)
	px, err := NewParallaxOn(s.dd.GK, s.dd, 256)
	if err != nil {
		t.Fatal(err)
	}
	cd, _ := s.h.CreateDomain("client", 64)
	cgk := NewGuestKernel(s.h, cd)
	if _, err := px.AttachClient(cgk, 64); err != nil {
		t.Fatal(err)
	}
	if err := cgk.Blk.Write(3, []byte("consolidated-write")); err != nil {
		t.Fatal(err)
	}
	got, err := cgk.Blk.Read(3)
	if err != nil || string(got[:18]) != "consolidated-write" {
		t.Fatalf("read %q, %v", got[:18], err)
	}
	// The single point of failure: killing Dom0 takes the storage
	// service AND the network with it.
	s.h.DestroyDomain(vmm.Dom0)
	if err := cgk.Blk.Write(4, []byte("x")); err == nil {
		t.Fatal("storage survived its consolidated host's death")
	}
	if err := s.guest.Net.Send([]byte("x")); err == nil {
		t.Fatal("network survived dom0 death")
	}
}

func TestParallaxSnapshotUnknownClient(t *testing.T) {
	s := newStack(t, RxFlip)
	pxDom, _ := s.h.CreateDomain("parallax", 64)
	px, _ := NewParallax(s.h, pxDom, nil, 0)
	if _, err := px.Snapshot(999); !errors.Is(err, ErrVDiskUnknown) {
		t.Fatalf("err = %v, want ErrVDiskUnknown", err)
	}
}

func TestRxDemuxToMultipleGuests(t *testing.T) {
	s := newStack(t, RxFlip)
	d2, _ := s.h.CreateDomain("domU2", 128)
	gk2 := NewGuestKernel(s.h, d2)
	if _, err := ConnectNet(s.dd, gk2); err != nil {
		t.Fatal(err)
	}
	// Destination byte 0 -> guest 1, byte 1 -> guest 2.
	s.nic.Inject([]byte{0, 0, 0})
	s.nic.Inject([]byte{1, 0, 0})
	s.nic.Inject([]byte{1, 0, 0})
	s.m.IRQ.DispatchPending(s.m.Rec.Intern(vmm.HypervisorComponent))
	s.pump()
	if s.guest.PendingRx() != 1 {
		t.Fatalf("guest1 pending = %d, want 1", s.guest.PendingRx())
	}
	if gk2.PendingRx() != 2 {
		t.Fatalf("guest2 pending = %d, want 2", gk2.PendingRx())
	}
}

func TestRxToDeadGuestDropped(t *testing.T) {
	s := newStack(t, RxFlip)
	s.h.DestroyDomain(s.guest.Dom.ID)
	injectPacket(s, 100)
	s.pump()
	// Dom0 must survive and not leak into a dead domain.
	if !s.h.Alive(vmm.Dom0) {
		t.Fatal("dom0 harmed by dead guest")
	}
	if n := len(s.nic.ReapRx()); n != 0 {
		t.Fatalf("%d packets left on the NIC, want 0 (reaped and dropped)", n)
	}
}

func TestFlipVsCopyCPUProportionality(t *testing.T) {
	// Mini-E1: under flip, dom0+monitor cost per packet is flat in packet
	// size; under copy it grows.
	perPacketCost := func(mode RxMode, size int) uint64 {
		s := newStack(t, mode)
		driver := func() uint64 {
			return s.m.Rec.Cycles("vmm.dom0") + s.m.Rec.Cycles(vmm.HypervisorComponent) + s.m.Rec.Cycles("vmm.domU1")
		}
		before := driver()
		for i := 0; i < 20; i++ {
			injectPacket(s, size)
			s.pump()
		}
		return (driver() - before) / 20
	}
	flipSmall := perPacketCost(RxFlip, 64)
	flipBig := perPacketCost(RxFlip, 4096)
	copySmall := perPacketCost(RxCopy, 64)
	copyBig := perPacketCost(RxCopy, 4096)

	// Flip: size-independent within 2% (pool bookkeeping noise).
	diff := float64(flipBig) - float64(flipSmall)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(flipSmall) > 0.02 {
		t.Fatalf("flip cost not flat: 64B=%d 4096B=%d", flipSmall, flipBig)
	}
	// Copy: big packets must cost visibly more than small ones.
	if copyBig <= copySmall {
		t.Fatalf("copy cost not size-dependent: 64B=%d 4096B=%d", copySmall, copyBig)
	}
}

func TestGuestWriteMemorySeenByDirtyLog(t *testing.T) {
	// The guest-kernel store path lands in memory and, with the domain's
	// dirty log armed, is exactly what a live migration round collects.
	s := newStack(t, RxFlip)
	if err := s.guest.WriteMemory(5, 0, []byte("plain store")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 11)
	if s.m.Mem.Read(s.guest.Dom.FrameAt(5), 0, got); string(got) != "plain store" {
		t.Fatalf("store lost: %q", got)
	}
	dl, err := s.h.EnableDirtyLog(s.guest.Dom.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.guest.WriteMemory(7, 0, []byte("logged store")); err != nil {
		t.Fatal(err)
	}
	if dirty := dl.Dirty(); len(dirty) != 1 || dirty[0] != 7 {
		t.Fatalf("dirty = %v, want [7]", dirty)
	}
	s.h.DisableDirtyLog(s.guest.Dom.ID)
	if err := s.guest.WriteMemory(9999, 0, []byte("x")); err == nil {
		t.Fatal("out-of-range guest write accepted")
	}
}
