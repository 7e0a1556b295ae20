package hw

import (
	"testing"
	"testing/quick"

	"vmmk/internal/trace"
)

func testMachine(t testing.TB) *Machine {
	t.Helper()
	return NewMachine(X86(), &MachineConfig{Frames: 128})
}

func TestAllArchsCount(t *testing.T) {
	archs := AllArchs()
	if len(archs) != 9 {
		t.Fatalf("have %d architectures, the paper's claim needs 9", len(archs))
	}
	seen := map[string]bool{}
	for _, a := range archs {
		if seen[a.Name] {
			t.Errorf("duplicate arch %q", a.Name)
		}
		seen[a.Name] = true
		if a.PageSize() != 1<<a.PageShift {
			t.Errorf("%s: PageSize inconsistent", a.Name)
		}
		if a.Costs.KernelEntry == 0 || a.Costs.KernelExit == 0 {
			t.Errorf("%s: zero kernel entry/exit cost", a.Name)
		}
		if a.RegisterIPCWords == 0 {
			t.Errorf("%s: zero register IPC words", a.Name)
		}
	}
}

func TestOnlyX86HasSegmentation(t *testing.T) {
	// The trap-gate fast-path experiment (E3) only makes sense on x86;
	// the portability census (E6) counts on that asymmetry.
	for _, a := range AllArchs() {
		if a.HasSegmentation != (a.Name == "x86") {
			t.Errorf("%s: HasSegmentation = %v", a.Name, a.HasSegmentation)
		}
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.advance(10)
	c.advanceTo(50)
	if c.Now() != 50 {
		t.Fatalf("clock = %d, want 50", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("backwards advanceTo did not panic")
		}
	}()
	c.advanceTo(49)
}

func TestEventQueueOrdering(t *testing.T) {
	clock := &Clock{}
	q := NewEventQueue(clock)
	var got []int
	q.Schedule(30, func() { got = append(got, 3) })
	q.Schedule(10, func() { got = append(got, 1) })
	q.Schedule(10, func() { got = append(got, 2) }) // same time: scheduling order
	q.Schedule(20, func() { got = append(got, 4) })
	n := q.RunUntilIdle(0)
	if n != 4 {
		t.Fatalf("fired %d events, want 4", n)
	}
	want := []int{1, 2, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if clock.Now() != 30 {
		t.Fatalf("clock = %d, want 30", clock.Now())
	}
}

func TestEventQueueCascade(t *testing.T) {
	clock := &Clock{}
	q := NewEventQueue(clock)
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 5 {
			depth++
			q.ScheduleAfter(1, recurse)
		}
	}
	q.Schedule(0, recurse)
	q.RunUntilIdle(0)
	if depth != 5 {
		t.Fatalf("cascade depth = %d, want 5", depth)
	}
}

func TestEventQueueRunUntil(t *testing.T) {
	clock := &Clock{}
	q := NewEventQueue(clock)
	var got []string
	q.Schedule(10, func() { got = append(got, "a") })
	q.Schedule(20, func() { got = append(got, "b") })
	q.RunUntil(15)
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("got %v, want [a]", got)
	}
	if clock.Now() != 15 {
		t.Fatalf("clock = %d, want 15", clock.Now())
	}
	if q.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", q.Pending())
	}
}

// TestQuickEventQueueOrder: events, including ones scheduled by firing
// events, fire in (due time, scheduling order) order.
func TestQuickEventQueueOrder(t *testing.T) {
	type key struct {
		at  Cycles
		seq int
	}
	f := func(delays []uint8, spawn []bool) bool {
		clock := &Clock{}
		q := NewEventQueue(clock)
		var fired []key
		seq := 0
		var sched func(d uint8)
		sched = func(d uint8) {
			k := key{at: clock.Now() + Cycles(d%16), seq: seq}
			seq++
			q.ScheduleAfter(Cycles(d%16), func() {
				fired = append(fired, k)
				if k.seq < len(spawn) && spawn[k.seq] {
					sched(d / 2)
				}
			})
		}
		for _, d := range delays {
			sched(d)
		}
		q.RunUntilIdle(0)
		if len(fired) != seq || q.Pending() != 0 {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEventQueueAllocatesNothing: the queue stores events by value, so
// scheduling a prebuilt func and firing it allocates nothing once the
// heap has grown.
func TestEventQueueAllocatesNothing(t *testing.T) {
	clock := &Clock{}
	q := NewEventQueue(clock)
	fired := 0
	fn := func() { fired++ }
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.Schedule(clock.Now()+Cycles(8-i), fn)
		}
		q.RunUntilIdle(0)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Schedule + RunUntilIdle allocates %.1f times per 8 events", n)
	}
	if fired != 8*102 {
		t.Fatalf("fired %d events, want %d", fired, 8*102)
	}
}

func TestPhysMemAllocFree(t *testing.T) {
	m := NewPhysMem(4, 4096)
	a := trace.NewRegistry().Intern("a")
	f1, err := m.Alloc(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Owner(f1) != a || m.OwnedBy(a) != 1 || m.FreeFrames() != 3 {
		t.Fatal("alloc bookkeeping wrong")
	}
	m.Free(f1)
	if m.Owner(f1) != trace.CompNone || m.OwnedBy(a) != 0 || m.FreeFrames() != 4 {
		t.Fatal("free bookkeeping wrong")
	}
}

func TestPhysMemExhaustion(t *testing.T) {
	m := NewPhysMem(2, 4096)
	reg := trace.NewRegistry()
	if _, err := m.AllocN(reg.Intern("a"), 3); err != ErrOutOfMemory {
		t.Fatalf("AllocN(3 of 2) err = %v, want ErrOutOfMemory", err)
	}
	if m.FreeFrames() != 2 {
		t.Fatal("failed AllocN leaked frames")
	}
	if _, err := m.AllocN(reg.Intern("a"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(reg.Intern("b")); err != ErrOutOfMemory {
		t.Fatalf("Alloc on empty err = %v", err)
	}
}

func TestPhysMemDoubleFreePanics(t *testing.T) {
	m := NewPhysMem(2, 4096)
	f, _ := m.Alloc(trace.NewRegistry().Intern("a"))
	m.Free(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.Free(f)
}

func TestPhysMemTransfer(t *testing.T) {
	m := NewPhysMem(2, 4096)
	reg := trace.NewRegistry()
	dom0, domU := reg.Intern("dom0"), reg.Intern("domU")
	f, _ := m.Alloc(dom0)
	m.Write(f, 0, []byte("payload"))
	m.Transfer(f, domU)
	if m.Owner(f) != domU || m.OwnedBy(dom0) != 0 || m.OwnedBy(domU) != 1 {
		t.Fatal("transfer did not change owner")
	}
	if string(peek(m, f)[:7]) != "payload" {
		t.Fatal("transfer must not disturb contents — that is the whole point of page flipping")
	}
	_, flips := m.Stats()
	if flips != 1 {
		t.Fatalf("flips = %d, want 1", flips)
	}
}

func TestPhysMemCopy(t *testing.T) {
	m := NewPhysMem(2, 4096)
	x := trace.NewRegistry().Intern("x")
	a, _ := m.Alloc(x)
	b, _ := m.Alloc(x)
	m.Write(a, 0, []byte("hello"))
	if n := m.Copy(b, a, 5); n != 5 {
		t.Fatalf("copied %d bytes, want 5", n)
	}
	if string(peek(m, b)[:5]) != "hello" {
		t.Fatal("copy corrupted data")
	}
	if n := m.Copy(b, a, 1<<40); n != 4096 {
		t.Fatalf("oversized copy moved %d bytes, want page size", n)
	}
}

func TestPageTableMapUnmap(t *testing.T) {
	pt := NewPageTable(7)
	pt.Map(5, PTE{Frame: 9, Perms: PermRW, User: true})
	e, ok := pt.Lookup(5)
	if !ok || e.Frame != 9 {
		t.Fatal("lookup after map failed")
	}
	pt.Unmap(5)
	if _, ok := pt.Lookup(5); ok {
		t.Fatal("entry survived unmap")
	}
	pt.Unmap(5) // no-op
	if pt.Len() != 0 {
		t.Fatalf("len %d after a no-op unmap, want 0", pt.Len())
	}
}

func TestPageTableUnmapFrame(t *testing.T) {
	pt := NewPageTable(1)
	pt.Map(1, PTE{Frame: 3, Perms: PermR})
	pt.Map(2, PTE{Frame: 3, Perms: PermR})
	pt.Map(4, PTE{Frame: 8, Perms: PermR})
	if n := pt.UnmapFrame(3); n != 2 {
		t.Fatalf("unmapped %d entries, want 2", n)
	}
	if pt.FramesMapped(3) != 0 || pt.FramesMapped(8) != 1 {
		t.Fatal("revocation incomplete")
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw-" || Perm(0).String() != "---" || PermRWX.String() != "rwx" {
		t.Fatal("perm rendering wrong")
	}
	if !PermRWX.Allows(PermRX) || PermR.Allows(PermW) {
		t.Fatal("Allows wrong")
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(2, false)
	if _, ok := tlb.Lookup(0, 1); ok {
		t.Fatal("hit in empty TLB")
	}
	tlb.Insert(0, 1, PTE{Frame: 1})
	if _, ok := tlb.Lookup(0, 1); !ok {
		t.Fatal("miss after insert")
	}
	if tlb.Len() != 1 {
		t.Fatalf("Len = %d after one insert, want 1", tlb.Len())
	}
}

func TestTLBFIFOEviction(t *testing.T) {
	tlb := NewTLB(2, false)
	tlb.Insert(0, 1, PTE{})
	tlb.Insert(0, 2, PTE{})
	tlb.Insert(0, 3, PTE{}) // evicts vpn 1
	if _, ok := tlb.Lookup(0, 1); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := tlb.Lookup(0, 3); !ok {
		t.Fatal("newest entry missing")
	}
	if tlb.Len() != 2 {
		t.Fatalf("len = %d, want 2", tlb.Len())
	}
}

func TestTLBUntaggedIgnoresASID(t *testing.T) {
	tlb := NewTLB(4, false)
	tlb.Insert(1, 9, PTE{Frame: 5})
	if e, ok := tlb.Lookup(2, 9); !ok || e.Frame != 5 {
		t.Fatal("untagged TLB should alias across ASIDs — that is why x86 must flush")
	}
}

func TestTLBTaggedSeparatesASIDs(t *testing.T) {
	tlb := NewTLB(4, true)
	tlb.Insert(1, 9, PTE{Frame: 5})
	if _, ok := tlb.Lookup(2, 9); ok {
		t.Fatal("tagged TLB leaked a translation across spaces")
	}
	tlb.FlushASID(1)
	if _, ok := tlb.Lookup(1, 9); ok {
		t.Fatal("FlushASID left entry")
	}
}

func TestTLBFlushASIDUntaggedFlushesAll(t *testing.T) {
	tlb := NewTLB(4, false)
	tlb.Insert(0, 1, PTE{})
	tlb.Insert(0, 2, PTE{})
	tlb.FlushASID(7)
	if tlb.Len() != 0 {
		t.Fatal("untagged FlushASID must flush everything")
	}
}

func TestTLBEvictionAfterFlushInteraction(t *testing.T) {
	// A flush empties the map but the FIFO may hold stale keys; further
	// inserts must not over-evict.
	tlb := NewTLB(2, false)
	tlb.Insert(0, 1, PTE{})
	tlb.FlushAll()
	tlb.Insert(0, 2, PTE{})
	tlb.Insert(0, 3, PTE{})
	if tlb.Len() != 2 {
		t.Fatalf("len after flush+refill = %d, want 2", tlb.Len())
	}
}

func TestCPUTrapCharges(t *testing.T) {
	m := testMachine(t)
	m.CPU.SetRing(Ring3)
	before := m.Now()
	m.CPU.Trap(m.Rec.Intern("k"), false)
	if m.CPU.Ring() != Ring0 {
		t.Fatal("trap did not enter ring0")
	}
	if m.Now()-before != m.Arch.Costs.KernelEntry {
		t.Fatalf("trap cost %d, want %d", m.Now()-before, m.Arch.Costs.KernelEntry)
	}
	if m.Rec.Counts(trace.KTrap) != 1 {
		t.Fatal("trap not recorded")
	}
	m.CPU.ReturnTo(m.Rec.Intern("k"), Ring3)
	if m.CPU.Ring() != Ring3 {
		t.Fatal("return did not restore ring")
	}
}

func TestCPUFastTrapCheaper(t *testing.T) {
	m := testMachine(t)
	t0 := m.Now()
	m.CPU.Trap(m.Rec.Intern("k"), false)
	slow := m.Now() - t0
	t1 := m.Now()
	m.CPU.Trap(m.Rec.Intern("k"), true)
	fast := m.Now() - t1
	if fast >= slow {
		t.Fatalf("fast syscall (%d) not cheaper than trap (%d)", fast, slow)
	}
}

func TestCPUSwitchSpaceUntaggedFlushes(t *testing.T) {
	m := testMachine(t) // x86: untagged
	pt1, pt2 := NewPageTable(1), NewPageTable(2)
	m.CPU.SwitchSpace(m.Rec.Intern("k"), &pt1)
	m.CPU.TLB.Insert(1, 5, PTE{Frame: 1})
	m.CPU.SwitchSpace(m.Rec.Intern("k"), &pt2)
	if m.CPU.TLB.Len() != 0 {
		t.Fatal("untagged switch must flush the TLB")
	}
	if m.Rec.Counts(trace.KTLBFlush) == 0 {
		t.Fatal("flush not recorded")
	}
}

func TestCPUSwitchSpaceTaggedKeepsTLB(t *testing.T) {
	m := NewMachine(ARM(), &MachineConfig{Frames: 16})
	pt1, pt2 := NewPageTable(1), NewPageTable(2)
	m.CPU.SwitchSpace(m.Rec.Intern("k"), &pt1)
	m.CPU.TLB.Insert(1, 5, PTE{Frame: 1})
	m.CPU.SwitchSpace(m.Rec.Intern("k"), &pt2)
	if m.CPU.TLB.Len() != 1 {
		t.Fatal("tagged switch should keep TLB contents")
	}
}

func TestCPUSwitchSpaceSameIsFree(t *testing.T) {
	m := testMachine(t)
	pt := NewPageTable(1)
	m.CPU.SwitchSpace(m.Rec.Intern("k"), &pt)
	before := m.Now()
	m.CPU.SwitchSpace(m.Rec.Intern("k"), &pt)
	if m.Now() != before {
		t.Fatal("re-switching to the current space must be free")
	}
}

func TestCPUTranslate(t *testing.T) {
	m := testMachine(t)
	pt := NewPageTable(1)
	f, _ := m.Mem.Alloc(m.Rec.Intern("a"))
	pt.Map(5, PTE{Frame: f, Perms: PermRW, User: true})
	m.CPU.SwitchSpace(m.Rec.Intern("k"), &pt)
	m.CPU.SetRing(Ring3)

	if _, res := m.CPU.Translate(m.Rec.Intern("a"), 5, PermR); res != XlateOK {
		t.Fatalf("first translate = %v, want ok (miss+refill)", res)
	}
	misses0 := m.Rec.Counts(trace.KTLBMiss)
	if _, res := m.CPU.Translate(m.Rec.Intern("a"), 5, PermW); res != XlateOK {
		t.Fatal("second translate failed")
	}
	if m.Rec.Counts(trace.KTLBMiss) != misses0 {
		t.Fatal("second translate should hit the TLB")
	}
	if _, res := m.CPU.Translate(m.Rec.Intern("a"), 5, PermX); res != XlateProtection {
		t.Fatal("execute of rw- page should fault")
	}
	if _, res := m.CPU.Translate(m.Rec.Intern("a"), 99, PermR); res != XlateNoMapping {
		t.Fatal("unmapped vpn should fault")
	}
}

func TestCPUTranslatePrivilege(t *testing.T) {
	m := testMachine(t)
	pt := NewPageTable(1)
	pt.Map(5, PTE{Frame: 0, Perms: PermRW, User: false})
	m.CPU.SwitchSpace(m.Rec.Intern("k"), &pt)
	m.CPU.SetRing(Ring3)
	if _, res := m.CPU.Translate(m.Rec.Intern("a"), 5, PermR); res != XlatePrivilege {
		t.Fatalf("user access to supervisor page = %v, want privilege fault", res)
	}
	m.CPU.SetRing(Ring0)
	// Entry is now cached; kernel access must succeed.
	if _, res := m.CPU.Translate(m.Rec.Intern("k"), 5, PermR); res != XlateOK {
		t.Fatal("kernel access to supervisor page failed")
	}
}

func TestSegmentsExclude(t *testing.T) {
	m := testMachine(t)
	const vmmBase = 0xFC00_0000
	// Truncated segments that stop below the monitor: fast path legal.
	for r := SegDS; r <= SegGS; r++ {
		m.CPU.LoadSegment(m.Rec.Intern("g"), r, Segment{Base: 0, Limit: vmmBase - 1, DPL: Ring3})
	}
	if !m.CPU.SegmentsExclude(vmmBase) {
		t.Fatal("truncated segments should exclude the monitor")
	}
	// glibc-TLS-style flat GS: violates the precondition.
	m.CPU.LoadSegment(m.Rec.Intern("g"), SegGS, Segment{Base: 0, Limit: ^uint64(0), DPL: Ring3})
	if m.CPU.SegmentsExclude(vmmBase) {
		t.Fatal("flat GS must break the exclusion — this is the glibc incident")
	}
}

func TestSegmentsExcludeNonSegmented(t *testing.T) {
	m := NewMachine(AMD64(), &MachineConfig{Frames: 16})
	if m.CPU.SegmentsExclude(0xFC00_0000) {
		t.Fatal("arch without segment limits can never exclude a range")
	}
}

func TestIRQDispatchOrder(t *testing.T) {
	m := testMachine(t)
	var got []IRQLine
	h := func(l IRQLine) { got = append(got, l) }
	m.IRQ.SetHandler(2, h)
	m.IRQ.SetHandler(5, h)
	m.IRQ.Raise(5)
	m.IRQ.Raise(2)
	if n := m.IRQ.DispatchPending(m.Rec.Intern("k")); n != 2 {
		t.Fatalf("dispatched %d, want 2", n)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("got %v, want [2 5] (ascending line order)", got)
	}
	if m.IRQ.Pending(2) || m.IRQ.Pending(5) {
		t.Fatal("dispatched lines still pending")
	}
}

func TestIRQSpurious(t *testing.T) {
	m := testMachine(t)
	m.IRQ.Raise(3) // no handler
	if n := m.IRQ.DispatchPending(m.Rec.Intern("k")); n != 0 {
		t.Fatalf("dispatched %d with no handler, want 0", n)
	}
	if m.IRQ.Pending(3) {
		t.Fatal("spurious line still pending after dispatch")
	}
}

func TestCopyCost(t *testing.T) {
	m := testMachine(t) // 32-bit words, 1 cycle/word
	if got := m.CPU.CopyCost(8); got != 2 {
		t.Fatalf("CopyCost(8) = %d, want 2", got)
	}
	if got := m.CPU.CopyCost(1); got != 1 {
		t.Fatalf("CopyCost(1) = %d, want 1 (round up)", got)
	}
}

func TestQuickTLBNeverExceedsCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		tlb := NewTLB(8, true)
		for _, op := range ops {
			vpn := VPN(op % 64)
			asid := uint16(op % 3)
			switch op % 4 {
			case 0, 1:
				tlb.Insert(asid, vpn, PTE{Frame: FrameID(op)})
			case 2:
				tlb.Lookup(asid, vpn)
			case 3:
				tlb.FlushASID(asid)
			}
			if tlb.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPhysMemConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		m := NewPhysMem(16, 4096)
		q := trace.NewRegistry().Intern("q")
		var held []FrameID
		for _, op := range ops {
			if op%2 == 0 {
				if f, err := m.Alloc(q); err == nil {
					held = append(held, f)
				}
			} else if len(held) > 0 {
				m.Free(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if m.FreeFrames()+len(held) != 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
