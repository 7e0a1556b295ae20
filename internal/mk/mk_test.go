package mk

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// rig is a booted microkernel with a client thread and an echo server in
// separate spaces.
type rig struct {
	m      *hw.Machine
	k      *Kernel
	client *Thread
	server *Thread
}

func newRig(t testing.TB, arch *hw.Arch) *rig {
	t.Helper()
	m := hw.NewMachine(arch, &hw.MachineConfig{Frames: 256})
	k := New(m)
	cs, err := k.NewSpace("client", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := k.NewSpace("server", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	client := k.NewThread(cs, "client", 1, nil)
	server := k.NewThread(ss, "server", 2, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		k.M.CPU.Work(k.M.Rec.Intern("mk.server"), 100) // pretend to do something
		return Msg{Label: msg.Label + 1, Words: msg.Words, Data: msg.Data}, nil
	})
	return &rig{m: m, k: k, client: client, server: server}
}

func TestCallRoundTrip(t *testing.T) {
	r := newRig(t, hw.X86())
	reply, err := r.k.Call(r.client.ID, r.server.ID, Msg{Label: 10, Words: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Label != 11 || len(reply.Words) != 2 || reply.Words[1] != 2 {
		t.Fatalf("bad reply %+v", reply)
	}
	if r.m.Rec.Counts(trace.KIPCCall) != 1 {
		t.Fatalf("KIPCCall = %d, want 1", r.m.Rec.Counts(trace.KIPCCall))
	}
}

func TestCallChargesKernelAndServer(t *testing.T) {
	r := newRig(t, hw.X86())
	k0 := r.m.Rec.Cycles(KernelComponent)
	_, err := r.k.Call(r.client.ID, r.server.ID, Msg{})
	if err != nil {
		t.Fatal(err)
	}
	if r.m.Rec.Cycles(KernelComponent) <= k0 {
		t.Fatal("kernel cycles not charged")
	}
	if r.m.Rec.Cycles("mk.server") != 100 {
		t.Fatalf("server cycles = %d, want 100", r.m.Rec.Cycles("mk.server"))
	}
	// Round trip must include at least two traps and two kernel exits.
	if r.m.Rec.Counts(trace.KTrap) < 2 {
		t.Fatalf("traps = %d, want >= 2", r.m.Rec.Counts(trace.KTrap))
	}
}

func TestCallToDeadServer(t *testing.T) {
	r := newRig(t, hw.X86())
	r.k.KillThread(r.server.ID)
	_, err := r.k.Call(r.client.ID, r.server.ID, Msg{})
	if !errors.Is(err, ErrDeadPartner) {
		t.Fatalf("err = %v, want ErrDeadPartner", err)
	}
	// The failure is the client's problem only: kernel still functional.
	if !r.k.Alive(r.client.ID) {
		t.Fatal("client died with the server — isolation broken")
	}
	if r.m.Rec.Counts(trace.KFault) != 1 {
		t.Fatal("kill not recorded as fault event")
	}
}

func TestCallToHandlerlessThread(t *testing.T) {
	r := newRig(t, hw.X86())
	_, err := r.k.Call(r.server.ID, r.client.ID, Msg{})
	if !errors.Is(err, ErrNotResponding) {
		t.Fatalf("err = %v, want ErrNotResponding", err)
	}
}

func TestCallNoSuchThread(t *testing.T) {
	r := newRig(t, hw.X86())
	if _, err := r.k.Call(r.client.ID, 999, Msg{}); !errors.Is(err, ErrNoSuchThread) {
		t.Fatalf("err = %v, want ErrNoSuchThread", err)
	}
}

func TestShortIPCCheaperThanString(t *testing.T) {
	r := newRig(t, hw.X86())
	t0 := r.m.Now()
	r.k.Call(r.client.ID, r.server.ID, Msg{Words: []uint64{1, 2, 3}})
	short := r.m.Now() - t0
	t1 := r.m.Now()
	r.k.Call(r.client.ID, r.server.ID, Msg{Data: make([]byte, 8192)})
	long := r.m.Now() - t1
	if long <= short {
		t.Fatalf("string IPC (%d) should cost more than short IPC (%d)", long, short)
	}
	if r.m.Rec.Counts(trace.KIPCStringTransfer) != 2 { // request + echoed reply
		t.Fatalf("string transfers = %d, want 2", r.m.Rec.Counts(trace.KIPCStringTransfer))
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	r := newRig(t, hw.X86())
	_, err := r.k.Call(r.client.ID, r.server.ID, Msg{Data: make([]byte, maxStringTransfer+1)})
	if !errors.Is(err, ErrMsgTooLarge) {
		t.Fatalf("err = %v, want ErrMsgTooLarge", err)
	}
}

func TestMapTransferSharesFrame(t *testing.T) {
	r := newRig(t, hw.X86())
	frames, err := r.k.AllocAndMap(r.client.Space, 0x100, 1, hw.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	r.m.Mem.Write(frames[0], 0, []byte("shared"))
	_, err = r.k.Call(r.client.ID, r.server.ID, Msg{
		Map: []MapItem{{SrcVPN: 0x100, DstVPN: 0x200, Count: 1, Perms: hw.PermR}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := r.server.Space.PT.Lookup(0x200)
	if !ok || e.Frame != frames[0] {
		t.Fatal("map transfer did not install the frame")
	}
	if e.Perms != hw.PermR {
		t.Fatalf("receiver perms = %v, want r--", e.Perms)
	}
	// Sender keeps its mapping on map (not grant).
	if _, ok := r.client.Space.PT.Lookup(0x100); !ok {
		t.Fatal("map (non-grant) removed the sender's mapping")
	}
	if r.m.Rec.Counts(trace.KIPCMapTransfer) != 1 {
		t.Fatal("map transfer not recorded")
	}
}

func TestGrantMovesOwnership(t *testing.T) {
	r := newRig(t, hw.X86())
	frames, _ := r.k.AllocAndMap(r.client.Space, 0x100, 1, hw.PermRW)
	_, err := r.k.Call(r.client.ID, r.server.ID, Msg{
		Map: []MapItem{{SrcVPN: 0x100, DstVPN: 0x300, Count: 1, Perms: hw.PermRW, Grant: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.client.Space.PT.Lookup(0x100); ok {
		t.Fatal("grant left the sender's mapping")
	}
	if got := r.m.Mem.Owner(frames[0]); got != r.server.Comp() {
		t.Fatalf("frame owner = %q, want mk.server", r.m.Rec.Registry().Name(got))
	}
}

func TestMapItemRightsNotAmplified(t *testing.T) {
	r := newRig(t, hw.X86())
	if _, err := r.k.AllocAndMap(r.client.Space, 0x100, 1, hw.PermR); err != nil {
		t.Fatal(err)
	}
	_, err := r.k.Call(r.client.ID, r.server.ID, Msg{
		Map: []MapItem{{SrcVPN: 0x100, DstVPN: 0x200, Count: 1, Perms: hw.PermRW}},
	})
	if !errors.Is(err, ErrPermDenied) {
		t.Fatalf("err = %v, want ErrPermDenied (delegation must not amplify rights)", err)
	}
}

func TestMapItemUnmappedSource(t *testing.T) {
	r := newRig(t, hw.X86())
	_, err := r.k.Call(r.client.ID, r.server.ID, Msg{
		Map: []MapItem{{SrcVPN: 0x999, DstVPN: 0x200, Count: 1, Perms: hw.PermR}},
	})
	if !errors.Is(err, ErrBadMapping) {
		t.Fatalf("err = %v, want ErrBadMapping", err)
	}
}

// TestSendRefusedToHandlerless: IPC is delivered only to handlers, so a
// Send to a thread without one is refused with ErrNotResponding, as a Call
// is, before anything transfers: a Grant item stays with the sender, no
// string is copied and no ipc.send is counted.
func TestSendRefusedToHandlerless(t *testing.T) {
	r := newRig(t, hw.X86())
	frames, err := r.k.AllocAndMap(r.server.Space, 0x100, 1, hw.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	snap := r.m.Rec.Snapshot()
	err = r.k.Send(r.server.ID, r.client.ID, Msg{
		Label: 7,
		Data:  []byte("never copied"),
		Map:   []MapItem{{SrcVPN: 0x100, DstVPN: 0x300, Count: 1, Perms: hw.PermRW, Grant: true}},
	})
	if !errors.Is(err, ErrNotResponding) {
		t.Fatalf("Send to a handlerless thread = %v, want ErrNotResponding", err)
	}
	for _, kind := range []trace.Kind{trace.KIPCSend, trace.KIPCStringTransfer, trace.KIPCMapTransfer} {
		if n := r.m.Rec.CountsSince(snap, kind); n != 0 {
			t.Errorf("refused Send counted %d %v", n, kind)
		}
	}
	if got := r.m.Mem.Owner(frames[0]); got != r.server.Space.Comp() {
		t.Fatalf("frame owner = %q, want mk.server", r.m.Rec.Registry().Name(got))
	}
	if _, ok := r.client.Space.PT.Lookup(0x300); ok {
		t.Fatal("refused grant mapped the page in the receiver's space")
	}
}

// TestRegisterIRQRefusedToHandlerless: an interrupt is a message to a
// handler, so RegisterIRQ refuses a thread without one with
// ErrNotResponding and installs no route: a raised line then delivers
// nothing and counts no ipc.send.
func TestRegisterIRQRefusedToHandlerless(t *testing.T) {
	r := newRig(t, hw.X86())
	if err := r.k.RegisterIRQ(5, r.client.ID); !errors.Is(err, ErrNotResponding) {
		t.Fatalf("RegisterIRQ to a handlerless thread = %v, want ErrNotResponding", err)
	}
	r.m.IRQ.Raise(5)
	if n := r.m.IRQ.DispatchPending(r.k.Comp()); n != 0 {
		t.Errorf("refused line dispatched %d interrupts", n)
	}
	if n := r.m.Rec.Counts(trace.KIPCSend); n != 0 {
		t.Errorf("refused line counted %d ipc.send", n)
	}
}

func TestSendDeliversToHandler(t *testing.T) {
	r := newRig(t, hw.X86())
	got := 0
	ss, _ := r.k.NewSpace("sink", NilThread)
	sink := r.k.NewThread(ss, "sink", 1, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		got++
		return Msg{}, nil
	})
	if err := r.k.Send(r.client.ID, sink.ID, Msg{}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatal("handler not invoked on send")
	}
	if sends := r.m.Rec.Counts(trace.KIPCSend); sends != 1 {
		t.Fatalf("KIPCSend = %d, want 1", sends)
	}
}

func TestNestedCallsServerToServer(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	cs, _ := k.NewSpace("c", NilThread)
	bs, _ := k.NewSpace("b", NilThread)
	as, _ := k.NewSpace("a", NilThread)
	var backendID ThreadID
	backend := k.NewThread(bs, "backend", 2, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		return Msg{Words: []uint64{msg.Words[0] * 2}}, nil
	})
	backendID = backend.ID
	frontSelf := ThreadID(0)
	front := k.NewThread(as, "front", 2, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		return k.Call(frontSelf, backendID, msg)
	})
	frontSelf = front.ID
	client := k.NewThread(cs, "cl", 1, nil)
	reply, err := k.Call(client.ID, front.ID, Msg{Words: []uint64{21}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Words[0] != 42 {
		t.Fatalf("nested call reply = %d, want 42", reply.Words[0])
	}
	if calls := m.Rec.Counts(trace.KIPCCall); calls != 2 {
		t.Fatalf("KIPCCall = %d, want 2", calls)
	}
}

func TestCallDepthBounded(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	s, _ := k.NewSpace("loop", NilThread)
	var selfID ThreadID
	self := k.NewThread(s, "loop", 1, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		return k.Call(selfID, selfID, msg) // infinite recursion
	})
	selfID = self.ID
	_, err := k.Call(selfID, selfID, Msg{})
	if !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v, want ErrCallDepth", err)
	}
}

// TestSendRefusedAtCallDepthTransfersNothing: at the call-depth limit a
// Send to a thread with a handler is refused before it delivers anything,
// as a Call is. A Grant item stays with the sender, the sends count no
// ipc.send, and the CPU stays in the sender's space.
func TestSendRefusedAtCallDepthTransfersNothing(t *testing.T) {
	r := newRig(t, hw.X86())
	ls, err := r.k.NewSpace("loop", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := r.k.AllocAndMap(ls, 0x100, 1, hw.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	var (
		loopID  ThreadID
		sendErr error
		ptKept  bool
		sends   uint64
	)
	loop := r.k.NewThread(ls, "loop", 1, func(k *Kernel, _ ThreadID, msg Msg) (Msg, error) {
		if k.callDepth < maxCallDepth {
			return k.Call(loopID, loopID, msg)
		}
		pt, snap := k.M.CPU.PageTable(), k.M.Rec.Snapshot()
		sendErr = k.Send(loopID, r.server.ID, Msg{
			Map: []MapItem{{SrcVPN: 0x100, DstVPN: 0x300, Count: 1, Perms: hw.PermRW, Grant: true}},
		})
		ptKept, sends = k.M.CPU.PageTable() == pt, k.M.Rec.CountsSince(snap, trace.KIPCSend)
		return msg, nil
	})
	loopID = loop.ID
	if _, err := r.k.Call(r.client.ID, loopID, Msg{}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sendErr, ErrCallDepth) {
		t.Fatalf("Send at depth %d = %v, want ErrCallDepth", maxCallDepth, sendErr)
	}
	if e, ok := ls.PT.Lookup(0x100); !ok || e.Frame != frames[0] {
		t.Fatal("refused grant removed the sender's mapping")
	}
	if got := r.m.Mem.Owner(frames[0]); got != ls.Comp() {
		t.Fatalf("frame owner = %q, want mk.loop", r.m.Rec.Registry().Name(got))
	}
	if _, ok := r.server.Space.PT.Lookup(0x300); ok {
		t.Fatal("refused grant mapped the page in the receiver's space")
	}
	if sends != 0 || !ptKept {
		t.Fatalf("refused Send counted %d ipc.send, page table kept %v", sends, ptKept)
	}
}

func TestPagerResolvesFault(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	ps, _ := k.NewSpace("pager", NilThread)
	var pagerSpace = ps
	pager := k.NewThread(ps, "pager", 3, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		if msg.Label != LabelPageFault {
			return Msg{}, nil
		}
		vpn := hw.VPN(msg.Words[0])
		// Allocate backing, map it into the pager's own window, then
		// delegate to the faulter.
		f, err := k.M.Mem.Alloc(k.M.Rec.Intern("mk.pager"))
		if err != nil {
			return Msg{}, err
		}
		window := hw.VPN(0x8000) + vpn
		pagerSpace.PT.Map(window, hw.PTE{Frame: f, Perms: hw.PermRW, User: true})
		return Msg{
			Label: LabelPageFaultReply,
			Map:   []MapItem{{SrcVPN: window, DstVPN: vpn, Count: 1, Perms: hw.PermRW}},
		}, nil
	})
	us, _ := k.NewSpace("user", pager.ID)
	u := k.NewThread(us, "user", 1, nil)

	if _, err := k.Touch(u.ID, 0x42, hw.PermW); err != nil {
		t.Fatal(err)
	}
	if _, ok := us.PT.Lookup(0x42); !ok {
		t.Fatal("pager reply did not install mapping")
	}
	if m.Rec.Counts(trace.KPagerFault) != 1 {
		t.Fatal("pager fault IPC not recorded")
	}
	// Second touch: no new fault.
	if _, err := k.Touch(u.ID, 0x42, hw.PermW); err != nil {
		t.Fatal(err)
	}
	if m.Rec.Counts(trace.KPagerFault) != 1 {
		t.Fatal("resolved page faulted again")
	}
}

func TestFaultWithDeadPagerKillsOnlyFaulter(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	ps, _ := k.NewSpace("pager", NilThread)
	pager := k.NewThread(ps, "pager", 3, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		return Msg{}, nil
	})
	us, _ := k.NewSpace("user", pager.ID)
	u := k.NewThread(us, "user", 1, nil)
	other, _ := k.NewSpace("other", NilThread)
	o := k.NewThread(other, "other", 1, nil)

	k.KillThread(pager.ID)
	_, err := k.Touch(u.ID, 0x10, hw.PermR)
	if !errors.Is(err, ErrNoPager) {
		t.Fatalf("err = %v, want ErrNoPager", err)
	}
	// Blast radius: only the client of the dead pager is affected.
	if !k.Alive(o.ID) {
		t.Fatal("unrelated thread harmed by pager death")
	}
}

func TestFaultNoPagerRegistered(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	us, _ := k.NewSpace("user", NilThread)
	u := k.NewThread(us, "user", 1, nil)
	if _, err := k.Touch(u.ID, 0x10, hw.PermR); !errors.Is(err, ErrNoPager) {
		t.Fatalf("err = %v, want ErrNoPager", err)
	}
}

func TestIRQDeliveredAsIPC(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	ds, _ := k.NewSpace("drv", NilThread)
	gotLine := hw.IRQLine(-1)
	drv := k.NewThread(ds, "drv", 4, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		if msg.Label == LabelIRQ {
			gotLine = hw.IRQLine(msg.Words[0])
		}
		return Msg{}, nil
	})
	if err := k.RegisterIRQ(5, drv.ID); err != nil {
		t.Fatal(err)
	}
	m.IRQ.Raise(5)
	m.IRQ.DispatchPending(m.Rec.Intern(KernelComponent))
	if gotLine != 5 {
		t.Fatalf("driver saw line %d, want 5", gotLine)
	}
	if sends := m.Rec.Counts(trace.KIPCSend); sends != 1 {
		t.Fatalf("IRQ should count as one IPC send, got %d", sends)
	}
}

func TestIRQToDeadDriverDropped(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	ds, _ := k.NewSpace("drv", NilThread)
	drv := k.NewThread(ds, "drv", 4, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		t.Fatal("dead driver's handler ran")
		return Msg{}, nil
	})
	k.RegisterIRQ(5, drv.ID)
	k.KillThread(drv.ID)
	m.IRQ.Raise(5)
	m.IRQ.DispatchPending(m.Rec.Intern(KernelComponent)) // must not panic or invoke
}

func TestKillSpaceKillsAllItsThreads(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	s, _ := k.NewSpace("victim", NilThread)
	t1 := k.NewThread(s, "v1", 1, nil)
	t2 := k.NewThread(s, "v2", 1, nil)
	other, _ := k.NewSpace("other", NilThread)
	t3 := k.NewThread(other, "o", 1, nil)
	k.KillSpace(s)
	if k.Alive(t1.ID) || k.Alive(t2.ID) {
		t.Fatal("threads survived space kill")
	}
	if !k.Alive(t3.ID) {
		t.Fatal("kill leaked into another space")
	}
	if k.Threads() != 1 {
		t.Fatalf("live threads = %d, want 1", k.Threads())
	}
}

// TestKillSpaceChargesInThreadOrder: KillSpace kills a space's threads in
// thread-ID order, so the components its fault charges first touch join
// the recorder's ledger in the same order on every kernel.
func TestKillSpaceChargesInThreadOrder(t *testing.T) {
	want := []string{"mk.v1", "mk.v2", "mk.v3", "mk.v4", "mk.victim"}
	for run := 0; run < 20; run++ {
		m := hw.NewMachine(hw.X86(), nil)
		k := New(m)
		s, _ := k.NewSpace("victim", NilThread)
		for _, name := range []string{"v1", "v2", "v3", "v4"} {
			k.NewThread(s, name, 1, nil)
		}
		before := len(m.Rec.Components())
		k.KillSpace(s)
		got := m.Rec.Components()[before:]
		if !slices.Equal(got, want) {
			t.Fatalf("kernel %d: KillSpace charged %v, want %v", run, got, want)
		}
	}
}

func TestSchedulerPriorityAndRoundRobin(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	s, _ := k.NewSpace("s", NilThread)
	lo := k.NewThread(s, "lo", 1, nil)
	hi1 := k.NewThread(s, "hi1", 5, nil)
	hi2 := k.NewThread(s, "hi2", 5, nil)

	first := k.ScheduleOn(0)
	second := k.ScheduleOn(0)
	third := k.ScheduleOn(0)
	if first.Prio != 5 || second.Prio != 5 {
		t.Fatal("high priority threads must run first")
	}
	if first == second {
		t.Fatal("round robin did not rotate within priority class")
	}
	if third != first {
		t.Fatal("rotation should come back around")
	}
	_ = lo
	_, _ = hi1, hi2
	// Kill the high-priority threads; low must finally run.
	k.KillThread(hi1.ID)
	k.KillThread(hi2.ID)
	if got := k.ScheduleOn(0); got == nil || got.Prio != 1 {
		t.Fatal("low priority thread never scheduled after highs died")
	}
}

func TestScheduleChargesSwitch(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	s1, _ := k.NewSpace("s1", NilThread)
	s2, _ := k.NewSpace("s2", NilThread)
	k.NewThread(s1, "a", 1, nil)
	k.NewThread(s2, "b", 1, nil)
	k.ScheduleOn(0)
	k.ScheduleOn(0)
	if got := m.Rec.Counts(trace.KContextSwitch); got != 2 {
		t.Fatalf("KContextSwitch = %d, want 2", got)
	}
	// Switching spaces on untagged x86 must have flushed the TLB.
	if m.Rec.Counts(trace.KTLBFlush) == 0 {
		t.Fatal("no TLB flush recorded on address-space switch")
	}
}

func TestMsgCloneIsolation(t *testing.T) {
	r := newRig(t, hw.X86())
	var captured Msg
	ss, _ := r.k.NewSpace("cap", NilThread)
	capture := r.k.NewThread(ss, "cap", 1, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		captured = msg
		return Msg{}, nil
	})
	data := []byte("original")
	if _, err := r.k.Call(r.client.ID, capture.ID, Msg{Data: data}); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	if string(captured.Data) != "original" {
		t.Fatal("receiver aliases sender memory — IPC must copy")
	}
}

func TestIPCEquivalentCountsOnMK(t *testing.T) {
	r := newRig(t, hw.X86())
	snap := r.m.Rec.Snapshot()
	for i := 0; i < 10; i++ {
		if _, err := r.k.Call(r.client.ID, r.server.ID, Msg{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.m.Rec.IPCEquivalentSince(snap); got != 10 {
		t.Fatalf("IPC-equivalent ops = %d, want 10", got)
	}
}

func TestQuickMapTransferPreservesFrameOwnership(t *testing.T) {
	f := func(grant bool, count uint8) bool {
		n := int(count%4) + 1
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 64})
		k := New(m)
		cs, _ := k.NewSpace("c", NilThread)
		ss, _ := k.NewSpace("s", NilThread)
		c := k.NewThread(cs, "c", 1, nil)
		srv := k.NewThread(ss, "s", 1, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
			return Msg{}, nil
		})
		frames, err := k.AllocAndMap(cs, 0, n, hw.PermRW)
		if err != nil {
			return false
		}
		_, err = k.Call(c.ID, srv.ID, Msg{Map: []MapItem{{SrcVPN: 0, DstVPN: 0x100, Count: n, Perms: hw.PermR, Grant: grant}}})
		if err != nil {
			return false
		}
		for i, fr := range frames {
			if _, ok := ss.PT.Lookup(0x100 + hw.VPN(i)); !ok {
				return false
			}
			wantOwner := c.Comp()
			if grant {
				wantOwner = srv.Comp()
			}
			if m.Mem.Owner(fr) != wantOwner {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossArchIPCWorksUnchanged(t *testing.T) {
	// The same client/server component code must run on all nine
	// platforms with zero changes — the portability claim in microcosm.
	for _, arch := range hw.AllArchs() {
		arch := arch
		t.Run(arch.Name, func(t *testing.T) {
			r := newRig(t, arch)
			reply, err := r.k.Call(r.client.ID, r.server.ID, Msg{Label: 1, Data: []byte("portable")})
			if err != nil {
				t.Fatal(err)
			}
			if string(reply.Data) != "portable" {
				t.Fatal("payload corrupted")
			}
		})
	}
}

func TestIPCCostVariesByArch(t *testing.T) {
	cost := func(arch *hw.Arch) hw.Cycles {
		r := newRig(t, arch)
		t0 := r.m.Now()
		r.k.Call(r.client.ID, r.server.ID, Msg{})
		return r.m.Now() - t0
	}
	x86 := cost(hw.X86())
	arm := cost(hw.ARM())
	// ARM has a tagged TLB and cheap traps; its IPC must beat x86's.
	if arm >= x86 {
		t.Fatalf("ARM IPC (%d) should be cheaper than x86 (%d)", arm, x86)
	}
}

// TestKernelBootAllocates pins what a small kernel boot allocates on a
// pooled (Reset) machine: the kernel, two spaces, four threads of mixed
// priority, and one interrupt route to a driver thread whose handler
// captures nothing, so it is no allocation. The object tables and the
// per-CPU installed threads are slices, a thread joins no run queue, and the
// mapping database and the IPC rights make their maps on first write, so
// the boot builds no map. The machine's registry already holds every
// component name, and interning a known name builds no string.
func TestKernelBootAllocates(t *testing.T) {
	const want = 16
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 256})
	n := testing.AllocsPerRun(100, func() {
		m.Reset()
		k := New(m)
		a, err := k.NewSpace("a", NilThread)
		if err != nil {
			t.Fatal(err)
		}
		b, err := k.NewSpace("b", NilThread)
		if err != nil {
			t.Fatal(err)
		}
		k.NewThread(a, "a0", 1, nil)
		k.NewThread(a, "a1", 3, nil)
		drv := k.NewThread(b, "drv", 5, func(*Kernel, ThreadID, Msg) (Msg, error) { return Msg{}, nil })
		k.NewThread(b, "b1", 1, nil)
		if err := k.RegisterIRQ(1, drv.ID); err != nil {
			t.Fatal(err)
		}
	})
	if n != want {
		t.Errorf("a kernel boot allocates %.0f objects, want %d", n, want)
	}
}

// TestNewSpaceExhaustsASIDs: space IDs are 16-bit hardware ASIDs, 0 being
// the kernel's, so the 65,536th NewSpace fails and every earlier one got
// the next ID.
func TestNewSpaceExhaustsASIDs(t *testing.T) {
	k := New(hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 16}))
	for id := SpaceID(1); id != 0; id++ {
		s, err := k.NewSpace("s", NilThread)
		if err != nil || s.ID != id || s.PT.ASID() != uint16(id) {
			t.Fatalf("space %d: got %v, %v", id, s, err)
		}
	}
	if _, err := k.NewSpace("s", NilThread); !errors.Is(err, ErrSpaceExhausted) {
		t.Fatalf("NewSpace past the last ASID: %v, want ErrSpaceExhausted", err)
	}
}
