package mkos

import (
	"bytes"
	"errors"
	"testing"

	"vmmk/internal/fslite"
	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/mk"
	"vmmk/internal/trace"
)

// mstack is a complete microkernel software stack: kernel, drivers, OS
// server with one process, and the storage server.
type mstack struct {
	m     *hw.Machine
	k     *mk.Kernel
	nic   *dev.NIC
	disk  *dev.Disk
	net   *NetDriver
	blk   *BlkDriver
	store *StoreServer
	os    *OSServer
	proc  *Proc
}

func newMStack(t testing.TB, mode RxMode) *mstack {
	t.Helper()
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 2048})
	k := mk.New(m)
	nic := dev.NewNIC(m, dev.NICConfig{RingSize: 64})
	disk := dev.NewDisk(m, dev.DiskConfig{Latency: 5000})
	nd, err := NewNetDriver(k, nic)
	if err != nil {
		t.Fatal(err)
	}
	nd.Mode = mode
	bd, err := NewBlkDriver(k, disk)
	if err != nil {
		t.Fatal(err)
	}
	osrv, err := NewOSServer(k, "linux")
	if err != nil {
		t.Fatal(err)
	}
	nd.Attach(osrv)
	store, err := NewStoreServer(k)
	if err != nil {
		t.Fatal(err)
	}
	store.SetPersistence(bd.NewBlkClient(store.Thread.ID, 1024))
	store.Attach(osrv, 256)
	proc, err := osrv.Spawn("app")
	if err != nil {
		t.Fatal(err)
	}
	return &mstack{m: m, k: k, nic: nic, disk: disk, net: nd, blk: bd, store: store, os: osrv, proc: proc}
}

func (s *mstack) pump() { s.k.PumpIO(64) }

func (s *mstack) inject(size int) {
	s.nic.Inject(make([]byte, size))
	s.m.IRQ.DispatchPending(s.m.Rec.Intern(mk.KernelComponent))
}

func TestSyscallGetPID(t *testing.T) {
	s := newMStack(t, RxGrant)
	snap := s.m.Rec.Snapshot()
	ret, err := s.os.Syscall(s.proc.PID, guestos.SysGetPID)
	if err != nil {
		t.Fatal(err)
	}
	if guestos.PID(ret[0]) != s.proc.PID {
		t.Fatalf("getpid = %d, want %d", ret[0], s.proc.PID)
	}
	// The syscall was exactly one IPC call.
	if calls := s.m.Rec.CountsSince(snap, trace.KIPCCall); calls != 1 {
		t.Fatalf("KIPCCall = %d, want 1", calls)
	}
}

func TestSyscallUnknownIsENOSYS(t *testing.T) {
	s := newMStack(t, RxGrant)
	ret, err := s.os.Syscall(s.proc.PID, 999)
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
	s := newMStack(t, RxGrant)
	for _, pid := range []guestos.PID{0, s.proc.PID + 1, 999} {
		if _, err := s.os.Syscall(pid, guestos.SysGetPID); !errors.Is(err, guestos.ErrNoSuchProcess) {
			t.Errorf("pid %d: err = %v, want ErrNoSuchProcess", pid, err)
		}
		if p := s.os.Proc(pid); p != nil {
			t.Errorf("Proc(%d) = %+v, want nil", pid, p)
		}
	}
}

// TestSyscallWithoutArgumentRefused: a call that reads an argument
// replies Fail without one, a syscall IPC without even a number is a
// malformed request, and the server keeps serving.
func TestSyscallWithoutArgumentRefused(t *testing.T) {
	s := newMStack(t, RxGrant)
	for _, no := range []uint32{guestos.SysWrite, guestos.SysNetSend} {
		ret, err := s.os.Syscall(s.proc.PID, no)
		if err != nil || len(ret) != 1 || ret[0] != guestos.Fail {
			t.Errorf("syscall %d without an argument = %v, %v; want [Fail]", no, ret, err)
		}
	}
	if _, err := s.k.Call(s.proc.Thread.ID, s.os.Thread.ID, mk.Msg{Label: LabelSyscall}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("syscall IPC without words: err = %v, want ErrBadRequest", err)
	}
	if ret, err := s.os.Syscall(s.proc.PID, guestos.SysGetPID); err != nil || guestos.PID(ret[0]) != s.proc.PID {
		t.Fatalf("getpid after refused calls = %v, %v", ret, err)
	}
}

func TestConsoleWrite(t *testing.T) {
	s := newMStack(t, RxGrant)
	for _, b := range []byte("ok") {
		if _, err := s.os.Syscall(s.proc.PID, guestos.SysWrite, uint64(b)); err != nil {
			t.Fatal(err)
		}
	}
	if string(s.os.Console()) != "ok" {
		t.Fatalf("console = %q", s.os.Console())
	}
}

func TestProcessPageFaultPagedByOS(t *testing.T) {
	s := newMStack(t, RxGrant)
	// Touch an unmapped page in the process: the OS server is its pager.
	if _, err := s.k.Touch(s.proc.Thread.ID, 0x77, hw.PermW); err != nil {
		t.Fatal(err)
	}
	if s.m.Rec.Counts(trace.KPagerFault) != 1 {
		t.Fatal("fault did not go through the pager protocol")
	}
	if _, ok := s.proc.Space.PT.Lookup(0x77); !ok {
		t.Fatal("mapping not installed")
	}
}

func TestNetRxGrantEndToEnd(t *testing.T) {
	s := newMStack(t, RxGrant)
	s.inject(1500)
	s.pump()
	if s.os.PendingRx() != 1 {
		t.Fatalf("pending = %d, want 1", s.os.PendingRx())
	}
	ret, err := s.os.Syscall(s.proc.PID, guestos.SysNetRecv)
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != 1500 {
		t.Fatalf("recv len = %d, want 1500", ret[0])
	}
	if s.m.Rec.Counts(trace.KIPCMapTransfer) == 0 {
		t.Fatal("grant mode must use map transfer")
	}
	if s.os.PendingRx() != 0 {
		t.Fatalf("pending = %d after recv, want 0", s.os.PendingRx())
	}
}

func TestNetRxCopyEndToEnd(t *testing.T) {
	s := newMStack(t, RxStringCopy)
	maps0 := s.m.Rec.Counts(trace.KIPCMapTransfer)
	s.inject(800)
	s.pump()
	if s.os.PendingRx() != 1 {
		t.Fatalf("pending = %d, want 1", s.os.PendingRx())
	}
	if s.m.Rec.Counts(trace.KIPCMapTransfer) != maps0 {
		t.Fatal("copy mode must not map-transfer")
	}
	if s.m.Rec.Counts(trace.KIPCStringTransfer) == 0 {
		t.Fatal("copy mode must string-transfer")
	}
}

func TestNetRxBurstConservesMemory(t *testing.T) {
	s := newMStack(t, RxGrant)
	free0 := s.m.Mem.FreeFrames()
	for i := 0; i < 50; i++ {
		s.inject(100)
		s.pump()
	}
	for s.os.PendingRx() > 0 {
		if _, err := s.os.Syscall(s.proc.PID, guestos.SysNetRecv); err != nil {
			t.Fatal(err)
		}
	}
	free1 := s.m.Mem.FreeFrames()
	if free0-free1 > 40 {
		t.Fatalf("frame leak: free %d -> %d", free0, free1)
	}
}

func TestNetTxEndToEnd(t *testing.T) {
	s := newMStack(t, RxGrant)
	snap := s.m.Rec.Snapshot()
	ret, err := s.os.Syscall(s.proc.PID, guestos.SysNetSend, 900)
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != 900 {
		t.Fatalf("send returned %d", ret[0])
	}
	s.pump()
	pkts := s.nic.Transmitted()
	if len(pkts) != 1 || len(pkts[0].Data) != 900 {
		t.Fatalf("wire saw %v packets", len(pkts))
	}
	// One call to the OS server, and one from it to the driver.
	if calls := s.m.Rec.CountsSince(snap, trace.KIPCCall); calls != 2 {
		t.Fatalf("KIPCCall = %d, want 2", calls)
	}
}

func TestNetSendToDeadDriverFails(t *testing.T) {
	s := newMStack(t, RxGrant)
	s.k.KillThread(s.net.Thread.ID)
	if err := s.os.Net.Send([]byte("x")); !errors.Is(err, mk.ErrDeadPartner) {
		t.Fatalf("err = %v, want ErrDeadPartner", err)
	}
	// OS server survives; only the network service is gone.
	if !s.k.Alive(s.os.Thread.ID) {
		t.Fatal("OS server died with the driver")
	}
}

func TestBlkDriverDirectReadWrite(t *testing.T) {
	s := newMStack(t, RxGrant)
	osClient := s.blk.NewBlkClient(s.os.Thread.ID, 128)
	snap := s.m.Rec.Snapshot()
	want := []byte("mk-block-data")
	if err := osClient.Write(3, want); err != nil {
		t.Fatal(err)
	}
	got, err := osClient.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("read %q, want %q", got[:len(want)], want)
	}
	// The disk charges one DMA transfer per block it serves.
	if got := s.m.Rec.CountsSince(snap, trace.KDMATransfer); got != 2 {
		t.Fatalf("disk served %d blocks, want 2", got)
	}
}

func TestBlkPartitionIsolation(t *testing.T) {
	s := newMStack(t, RxGrant)
	os2, err := NewOSServer(s.k, "linux2")
	if err != nil {
		t.Fatal(err)
	}
	c1 := s.blk.NewBlkClient(s.os.Thread.ID, 64)
	c2 := s.blk.NewBlkClient(os2.Thread.ID, 64)
	if err := c1.Write(0, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := c2.Write(0, []byte("two")); err != nil {
		t.Fatal(err)
	}
	g1, _ := c1.Read(0)
	g2, _ := c2.Read(0)
	if string(g1[:3]) != "one" || string(g2[:3]) != "two" {
		t.Fatal("partition isolation broken")
	}
}

func TestBlkOutOfRange(t *testing.T) {
	s := newMStack(t, RxGrant)
	c := s.blk.NewBlkClient(s.os.Thread.ID, 16)
	if _, err := c.Read(16); err == nil {
		t.Fatal("out-of-partition read must fail")
	}
}

// TestBlockServersRefuseLongMessages: a block write message longer than a
// page, sent past BlkClient's own refusal, is a malformed request to the
// disk driver and to the store server alike, so neither stores any of it:
// each block still reads what the last page-sized write stored.
func TestBlockServersRefuseLongMessages(t *testing.T) {
	s := newMStack(t, RxGrant)
	disk := s.blk.NewBlkClient(s.os.Thread.ID, 16)
	for _, c := range []*BlkClient{disk, s.os.Blk} {
		if err := c.Write(3, []byte("kept")); err != nil {
			t.Fatal(err)
		}
	}
	long := bytes.Repeat([]byte{0xEE}, int(s.m.Mem.PageSize())+1)
	for _, c := range []*BlkClient{disk, s.os.Blk} {
		msg := mk.Msg{Label: LabelBlkWrite, Words: []uint64{3}, Data: long}
		if _, err := s.k.Call(s.os.Thread.ID, c.server, msg); !errors.Is(err, ErrBadRequest) {
			t.Errorf("a %d-byte write message: err = %v, want ErrBadRequest", len(long), err)
		}
		got, err := c.Read(3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, []byte("kept\x00")) {
			t.Errorf("block 3 after the refused message starts %q, want %q", got[:8], "kept")
		}
	}
	if got := s.store.vdisks[s.os.Thread.ID].Block(3); string(got) != "kept" {
		t.Errorf("the store caches %d bytes for block 3, want %q", len(got), "kept")
	}
}

// TestStoreServesViaSyscall: the OS server's block service is the store:
// each request is one IPC call from the server to the store, and the
// write also persists through the disk driver.
func TestStoreServesViaSyscall(t *testing.T) {
	s := newMStack(t, RxGrant)
	snap := s.m.Rec.Snapshot()
	if err := s.os.Blk.Write(5, []byte("block-data")); err != nil {
		t.Fatalf("block write failed: %v", err)
	}
	got, err := s.os.Blk.Read(5)
	if err != nil || string(got[:10]) != "block-data" {
		t.Fatalf("block read = %q, %v", got[:10], err)
	}
	if calls := s.m.Rec.CountsSince(snap, trace.KIPCCall); calls != 3 {
		t.Fatalf("KIPCCall = %d, want 3", calls)
	}
}

func TestStoreCopyOnWriteSnapshot(t *testing.T) {
	s := newMStack(t, RxGrant)
	client := s.os.Blk
	if err := client.Write(1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	n, err := s.store.Snapshot(s.os.Thread.ID)
	if err != nil || n != 1 {
		t.Fatalf("snapshot captured %d, err %v", n, err)
	}
	if err := client.Write(1, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := client.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:2]) != "v2" {
		t.Fatal("live view missing post-snapshot write")
	}
	if snap := s.store.SnapshotRead(s.os.Thread.ID, 1); string(snap[:2]) != "v1" {
		t.Fatal("snapshot lost pre-snapshot data")
	}
}

func TestStoreReadThroughPersistence(t *testing.T) {
	s := newMStack(t, RxGrant)
	client := s.os.Blk
	if err := client.Write(9, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	// Clear the in-memory cache to force read-through from the disk
	// driver (simulating a store restart with warm persistence).
	s.store.vdisks[s.os.Thread.ID].MemDev = fslite.MemDev{}
	got, err := client.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "durable" {
		t.Fatalf("read-through returned %q", got[:7])
	}
}

func TestStoreDeathBlastRadius(t *testing.T) {
	// E4's microkernel half: kill the storage server; its clients lose
	// storage, the kernel and other servers are unaffected. Identical in
	// structure to Parallax's failure on the VMM side.
	s := newMStack(t, RxGrant)
	client := s.os.Blk
	if err := client.Write(1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	s.k.KillThread(s.store.Thread.ID)

	if err := client.Write(2, []byte("post")); !errors.Is(err, mk.ErrDeadPartner) {
		t.Fatalf("err = %v, want ErrDeadPartner", err)
	}
	if !s.k.Alive(s.os.Thread.ID) || !s.k.Alive(s.proc.Thread.ID) {
		t.Fatal("client killed by server death")
	}
	// Unrelated services still work.
	if _, err := s.os.Syscall(s.proc.PID, guestos.SysGetPID); err != nil {
		t.Fatalf("kernel/OS path broken: %v", err)
	}
	direct := s.blk.NewBlkClient(s.os.Thread.ID, 32)
	if err := direct.Write(0, []byte("ok")); err != nil {
		t.Fatalf("disk driver broken by store death: %v", err)
	}
}

func TestStoreInDriverSpaceConsolidated(t *testing.T) {
	// The mk-side super-server: storage colocated with the disk driver.
	// It works — and dies with the driver, unlike the decomposed layout.
	s := newMStack(t, RxGrant)
	colo, err := NewStoreServerIn(s.k, s.blk.Space, "srv.blk.store")
	if err != nil {
		t.Fatal(err)
	}
	os2, _ := NewOSServer(s.k, "linux2")
	client := colo.Attach(os2, 64)
	if err := client.Write(1, []byte("colo")); err != nil {
		t.Fatal(err)
	}
	s.k.KillSpace(s.blk.Space)
	if err := client.Write(2, []byte("x")); err == nil {
		t.Fatal("colocated store survived its host space's death")
	}
	// The decomposed store (in its own space) is untouched.
	if !s.k.Alive(s.store.Thread.ID) {
		t.Fatal("separate store harmed by driver-space death")
	}
}

func TestStoreUnattachedClientRejected(t *testing.T) {
	s := newMStack(t, RxGrant)
	os2, _ := NewOSServer(s.k, "intruder")
	_, err := s.k.Call(os2.Thread.ID, s.store.Thread.ID, mk.Msg{Label: LabelBlkRead, Words: []uint64{0}})
	if !errors.Is(err, ErrNoVDisk) {
		t.Fatalf("err = %v, want ErrNoVDisk", err)
	}
}

func TestRxDemuxToMultipleOSServers(t *testing.T) {
	s := newMStack(t, RxGrant)
	os2, _ := NewOSServer(s.k, "linux2")
	s.net.Attach(os2)
	s.nic.Inject([]byte{0, 0})
	s.nic.Inject([]byte{1, 0})
	s.nic.Inject([]byte{1, 0})
	s.m.IRQ.DispatchPending(s.m.Rec.Intern(mk.KernelComponent))
	s.pump()
	if s.os.PendingRx() != 1 {
		t.Fatalf("os1 pending = %d, want 1", s.os.PendingRx())
	}
	if os2.PendingRx() != 2 {
		t.Fatalf("os2 pending = %d, want 2", os2.PendingRx())
	}
}

func TestRxToDeadOSServerDropped(t *testing.T) {
	s := newMStack(t, RxGrant)
	s.k.KillThread(s.os.Thread.ID)
	s.inject(64)
	s.pump()
	if n := len(s.nic.ReapRx()); n != 0 {
		t.Fatalf("%d packets left on the NIC, want 0 (reaped and dropped)", n)
	}
	if !s.k.Alive(s.net.Thread.ID) {
		t.Fatal("driver harmed by dead client")
	}
}

func TestGrantVsCopyCPUProportionality(t *testing.T) {
	// Mini-E1, microkernel side: grant-mode per-packet cost is nearly
	// flat in packet size; string-copy mode grows with size.
	perPacket := func(mode RxMode, size int) uint64 {
		s := newMStack(t, mode)
		total := func() uint64 { return s.m.Rec.TotalCycles() }
		before := total()
		for i := 0; i < 20; i++ {
			s.inject(size)
			s.pump()
		}
		return (total() - before) / 20
	}
	grantSmall := perPacket(RxGrant, 64)
	grantBig := perPacket(RxGrant, 4096)
	copySmall := perPacket(RxStringCopy, 64)
	copyBig := perPacket(RxStringCopy, 4096)
	// Note: the driver itself copies payload for the descriptor in both
	// modes, so "flat" here is looser than on the VMM side; the claim is
	// only that copy mode grows strictly faster.
	growGrant := float64(grantBig) / float64(grantSmall)
	growCopy := float64(copyBig) / float64(copySmall)
	if growCopy <= growGrant {
		t.Fatalf("copy growth (%.2f) should exceed grant growth (%.2f)", growCopy, growGrant)
	}
}

func TestCrossArchStackBoots(t *testing.T) {
	// The whole personality stack is arch-independent: boot it on all
	// nine platforms unchanged and run a syscall + a packet through it.
	for _, arch := range hw.AllArchs() {
		arch := arch
		t.Run(arch.Name, func(t *testing.T) {
			m := hw.NewMachine(arch, &hw.MachineConfig{Frames: 1024})
			k := mk.New(m)
			nic := dev.NewNIC(m, dev.NICConfig{})
			nd, err := NewNetDriver(k, nic)
			if err != nil {
				t.Fatal(err)
			}
			osrv, err := NewOSServer(k, "linux")
			if err != nil {
				t.Fatal(err)
			}
			nd.Attach(osrv)
			p, err := osrv.Spawn("app")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := osrv.Syscall(p.PID, guestos.SysGetPID); err != nil {
				t.Fatal(err)
			}
			nic.Inject(make([]byte, 256))
			m.IRQ.DispatchPending(m.Rec.Intern(mk.KernelComponent))
			k.PumpIO(16)
			if osrv.PendingRx() != 1 {
				t.Fatal("packet lost")
			}
		})
	}
}
