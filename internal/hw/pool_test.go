package hw

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"vmmk/internal/trace"
)

// exercise runs a small mixed workload on m: allocation, page writes,
// translations, traps, IPIs and scheduled events — enough to dirty every
// subsystem Reset must restore. On a multiprocessor the IPIs and the
// shootdown reach every CPU, so each charges its "cpu<n>" components.
func exercise(t *testing.T, m *Machine) {
	t.Helper()
	comp := m.Rec.Intern("test.comp")
	frames, err := m.Mem.AllocN(m.Rec.Intern("test"), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		m.Mem.Write(f, 0, []byte{byte(i + 1)})
	}
	pt := NewPageTable(1)
	for i, f := range frames {
		pt.Map(VPN(i), PTE{Frame: f, Perms: PermRW, User: true})
	}
	m.CPU.SwitchSpace(comp, &pt)
	for i := range frames {
		m.CPU.Translate(comp, VPN(i), PermR)
	}
	m.CPU.Trap(comp, false)
	m.CPU.ReturnTo(comp, Ring3)
	if last := m.NCPUs() - 1; last > 0 {
		m.SendIPI(0, last)
		m.SendIPI(last, 0)
		m.Shootdown(0, m.AllCPUs(), 1)
	}
	m.IRQ.SetHandler(3, func(IRQLine) {})
	m.IRQ.Raise(3)
	m.Events.ScheduleAfter(10_000, func() { t.Error("stale event fired") })
	m.Mem.Free(frames[0])
	if err := m.Mem.Audit(); err != nil {
		t.Fatalf("after exercise: %v", err)
	}
}

// fingerprint captures everything a fresh machine exposes that an
// experiment could observe.
type machineFP struct {
	now      Cycles
	pending  int
	freeFrm  int
	total    uint64
	traps    uint64
	ring     Priv
	ipis     uint64
	frame0   FrameID
	frame0b0 byte
}

func fingerprint(m *Machine) machineFP {
	f, err := m.Mem.Alloc(m.Rec.Intern("fp"))
	if err != nil {
		panic(err)
	}
	b0 := peek(m.Mem, f)[0]
	fp := machineFP{
		now:      m.Now(),
		pending:  m.Events.Pending(),
		freeFrm:  m.Mem.FreeFrames(),
		total:    m.Rec.TotalCycles(),
		traps:    m.Rec.Counts(trace.KTrap),
		ring:     m.CPU.Ring(),
		ipis:     m.Rec.Counts(trace.KIPI),
		frame0:   f,
		frame0b0: b0,
	}
	return fp
}

// TestMachineResetRestoresFreshState pins the Reset contract: after a mixed
// workload, Reset leaves the machine observably identical to a brand-new
// one — same virtual time, same allocator order, zeroed memory, ring 0,
// quiescent queue and recorder.
func TestMachineResetRestoresFreshState(t *testing.T) {
	for _, ncpus := range []int{1, 4} {
		cfg := &MachineConfig{Frames: 64, NCPUs: ncpus}
		used := NewMachine(X86(), cfg)
		exercise(t, used)
		used.Reset()
		if err := used.Mem.Audit(); err != nil {
			t.Errorf("ncpus=%d: after Reset: %v", ncpus, err)
		}

		fresh := NewMachine(X86(), cfg)
		if got, want := fingerprint(used), fingerprint(fresh); got != want {
			t.Errorf("ncpus=%d: reset machine %+v, fresh machine %+v", ncpus, got, want)
		}
		for k := trace.Kind(0); k < trace.Kind(trace.NKinds); k++ {
			if used.Rec.Counts(k) != 0 {
				t.Errorf("ncpus=%d: counter %v = %d after Reset", ncpus, k, used.Rec.Counts(k))
			}
		}
	}
}

// TestMachineResetClearsEvents pins that queued events never leak across a
// Reset — the exercise helper schedules one that calls t.Error if fired.
func TestMachineResetClearsEvents(t *testing.T) {
	m := NewMachine(X86(), &MachineConfig{Frames: 64})
	exercise(t, m)
	m.Reset()
	m.RunUntilIdle(0) // would fire the stale event if Reset leaked it
	if m.Now() != 0 {
		t.Errorf("clock = %d after Reset+idle drain, want 0", m.Now())
	}
}

// bootBytes returns the fewest heap bytes one NewMachine of frames frames
// allocated over a few boots.
func bootBytes(frames int) uint64 {
	best := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := NewMachine(X86(), &MachineConfig{Frames: frames})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestBootAndResetCostWhatAMachineUses pins that a machine pays for the
// frames it touches, not for those it installs: a 2^20-frame boot
// allocates no more than a 4096-frame one, and once a machine has touched
// a few hundred frames, touching them again and resetting allocates
// nothing.
func TestBootAndResetCostWhatAMachineUses(t *testing.T) {
	if small, huge := bootBytes(4096), bootBytes(1<<20); huge > small+1024 {
		t.Errorf("booting 2^20 frames allocates %d bytes, 4096 frames %d", huge, small)
	}
	m := NewMachine(X86(), &MachineConfig{Frames: 1 << 20})
	c := m.Rec.Intern("test")
	touch := func() {
		for i := range 300 {
			f, err := m.Mem.Alloc(c)
			if err != nil {
				t.Fatal(err)
			}
			m.Mem.Write(f, i%64, []byte{byte(i)})
		}
		m.Reset()
	}
	touch()
	if n := testing.AllocsPerRun(10, touch); n != 0 {
		t.Errorf("touching 300 frames and resetting allocates %.1f times", n)
	}
	if n := len(m.Mem.table); n > 512 {
		t.Errorf("a machine that touched 300 frames keeps %d frame records", n)
	}
}

// poolShape is the i-th machine shape the pool tests cross: frame counts,
// CPU counts and log capacities, each cycling at its own period. The CPU
// counts grow a machine past the spare capacity of its CPU slice, shrink
// it, and grow it again past what it hid; the largest frame count comes
// between smaller ones, so a shrunk memory keeps a frame table longer than
// its frame count.
func poolShape(i int) MachineConfig {
	frames := []int{64, 128, 1 << 20, 16, 4096}
	ncpus := []int{1, 3, 33, 2, 64, 1, 5}
	logCaps := []int{0, 16, 0}
	return MachineConfig{Frames: frames[i%len(frames)], NCPUs: ncpus[i%len(ncpus)], LogCap: logCaps[i%len(logCaps)]}
}

// TestMachinePoolReuse pins the pool's one rule: any pooled machine serves
// any Get. A Get for any architecture, frame count, CPU count and log
// capacity takes the machine on top of the pool, which then reports what
// a fresh boot of that shape does, and after the same work its recorder
// holds the same counts, cycles and components as the fresh machine's.
func TestMachinePoolReuse(t *testing.T) {
	p := NewMachinePool()
	m1 := p.Get(X86(), &MachineConfig{Frames: 64})
	p.Put(m1)
	// X86() returns a fresh pointer — the pool must not key by address.
	m2 := p.Get(X86(), &MachineConfig{Frames: 64})
	if m1 != m2 {
		t.Fatal("pool did not reuse an identical machine")
	}
	if hits, _ := p.Stats(); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}

	// Crossed shapes take the pooled machine. Each shape dirties it before
	// the next Get re-targets it.
	for i, arch := range append(AllArchs(), X86()) {
		cfg := poolShape(i)
		p.Put(m2)
		got := p.Get(arch, &cfg)
		if got != m2 {
			t.Fatalf("%s %+v: the pool booted a machine where its pooled one serves", arch.Name, cfg)
		}
		fresh := NewMachine(arch, &cfg)
		if diff := shapeDiff(got, fresh); diff != "" {
			t.Fatalf("%s %+v: re-targeted machine differs from a fresh boot: %s", arch.Name, cfg, diff)
		}
		if err := got.Mem.Audit(); err != nil {
			t.Fatalf("%s %+v: re-targeted memory: %v", arch.Name, cfg, err)
		}
		exercise(t, got)
		exercise(t, fresh)
		if diff := ledgerDiff(got, fresh); diff != "" {
			t.Fatalf("%s %+v: after the same work, re-targeted machine differs from a fresh boot: %s", arch.Name, cfg, diff)
		}
	}
	if hits, misses := p.Stats(); hits != 11 || misses != 1 {
		t.Fatalf("hits %d and misses %d, want 11 and 1", hits, misses)
	}

	// Too many CPUs panic before a machine leaves the pool.
	p.Put(m2)
	if !panics(func() { p.Get(X86(), &MachineConfig{NCPUs: MaxCPUs + 1}) }) {
		t.Fatalf("a Get for %d CPUs did not panic", MaxCPUs+1)
	}
	if got := p.Get(X86(), &MachineConfig{Frames: 64}); got != m2 {
		t.Fatalf("the refused Get for %d CPUs took the pooled machine", MaxCPUs+1)
	}

	// A nil config re-targets a pooled machine to the defaults.
	p2 := NewMachinePool()
	p2.Put(p2.Get(X86(), &MachineConfig{Frames: 64, NCPUs: 4, LogCap: 16}))
	m5 := p2.Get(X86(), nil)
	if hits, _ := p2.Stats(); hits != 1 {
		t.Fatal("a nil config did not take the pooled machine")
	}
	if diff := shapeDiff(m5, NewMachine(X86(), nil)); diff != "" {
		t.Fatalf("nil config: re-targeted machine differs from a fresh boot: %s", diff)
	}
}

// TestMachinePoolRetargetAllocatesNothing pins the pool's warm path: once a
// machine has grown to every shape poolShape crosses, a Put and Get cycle
// through all of them, with every architecture, allocates nothing.
func TestMachinePoolRetargetAllocatesNothing(t *testing.T) {
	archs := append(AllArchs(), X86())
	shapes := make([]MachineConfig, len(archs))
	for i := range shapes {
		shapes[i] = poolShape(i)
	}
	p := NewMachinePool()
	m := p.Get(X86(), nil)
	cycle := func() {
		for i, arch := range archs {
			p.Put(m)
			m = p.Get(arch, &shapes[i])
		}
	}
	cycle()
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Errorf("a warm Put and Get cycle through %d shapes allocates %.1f times", len(shapes), n)
	}
	if _, misses := p.Stats(); misses != 1 {
		t.Errorf("the cycle booted %d machines, want 1", misses)
	}
}

// shapeDiff names the first thing in which machine got, as a pool handed
// it out, differs from a fresh boot: its config, its frame counts and page
// size, its architecture's value (on the machine and on each CPU), each
// CPU's index, a multiprocessor's "cpu<n>" names, and the event log, which
// keeps the newest LogCap of 20 charges.
func shapeDiff(got, fresh *Machine) string {
	switch {
	case got.Cfg != fresh.Cfg:
		return fmt.Sprintf("config %+v, fresh %+v", got.Cfg, fresh.Cfg)
	case got.Mem.TotalFrames() != fresh.Mem.TotalFrames():
		return fmt.Sprintf("%d frames, fresh %d", got.Mem.TotalFrames(), fresh.Mem.TotalFrames())
	case got.Mem.FreeFrames() != fresh.Mem.FreeFrames():
		return fmt.Sprintf("%d free frames, fresh %d", got.Mem.FreeFrames(), fresh.Mem.FreeFrames())
	case got.Mem.PageSize() != fresh.Mem.PageSize():
		return fmt.Sprintf("%d-byte pages, fresh %d", got.Mem.PageSize(), fresh.Mem.PageSize())
	case *got.Arch != *fresh.Arch:
		return fmt.Sprintf("arch %s, fresh %s", got.Arch.Name, fresh.Arch.Name)
	case len(got.CPUs) != len(fresh.CPUs):
		return fmt.Sprintf("%d CPUs, fresh %d", len(got.CPUs), len(fresh.CPUs))
	case got.CPU != got.CPUs[0]:
		return "the boot CPU is not CPUs[0]"
	}
	names := got.Rec.Registry()
	for i, c := range got.CPUs {
		switch {
		case c.Index != i:
			return fmt.Sprintf("CPUs[%d] has index %d", i, c.Index)
		case c.Arch != got.Arch:
			return fmt.Sprintf("CPU %d runs arch %s, its machine %s", i, c.Arch.Name, got.Arch.Name)
		}
		if len(got.CPUs) == 1 {
			continue
		}
		for _, n := range []struct {
			comp trace.Comp
			want string
		}{{c.ipiComp, fmt.Sprintf("cpu%d.ipi", i)}, {c.shootComp, fmt.Sprintf("cpu%d.shootdown", i)}} {
			if name := names.Name(n.comp); name != n.want {
				return fmt.Sprintf("CPU %d charges %q for %s", i, name, n.want)
			}
		}
	}
	if a, b := fingerprint(got), fingerprint(fresh); a != b {
		return fmt.Sprintf("fingerprint %+v, fresh %+v", a, b)
	}
	for _, m := range []*Machine{got, fresh} {
		c := m.Rec.Intern("test.log")
		for i := range 20 {
			m.CPU.Charge(c, trace.KTrap, Cycles(i))
		}
	}
	a, b := got.Rec.Log(), fresh.Rec.Log()
	if want := min(got.Cfg.LogCap, 20); len(a) != want || !slices.Equal(a, b) {
		return fmt.Sprintf("log of %d records, want %d, fresh %d", len(a), want, len(b))
	}
	if len(a) > 0 && a[0].Cycles != uint64(20-len(a)) {
		return fmt.Sprintf("log starts at charge %d, want %d", a[0].Cycles, 20-len(a))
	}
	return ""
}

// ledgerDiff names the first thing in which the recorders of got and fresh
// differ: the clock, an event counter, the components in first-charge
// order, or a component's cycles.
func ledgerDiff(got, fresh *Machine) string {
	if got.Now() != fresh.Now() {
		return fmt.Sprintf("clock %d, fresh %d", got.Now(), fresh.Now())
	}
	for k := trace.Kind(0); k < trace.Kind(trace.NKinds); k++ {
		if a, b := got.Rec.Counts(k), fresh.Rec.Counts(k); a != b {
			return fmt.Sprintf("%v count %d, fresh %d", k, a, b)
		}
	}
	comps := fresh.Rec.Components()
	if a := got.Rec.Components(); !slices.Equal(a, comps) {
		return fmt.Sprintf("components %q, fresh %q", a, comps)
	}
	for _, c := range comps {
		if a, b := got.Rec.Cycles(c), fresh.Rec.Cycles(c); a != b {
			return fmt.Sprintf("%s: %d cycles, fresh %d", c, a, b)
		}
	}
	return ""
}

// TestMachinePoolRefusesDoublePut pins Put's contract: a machine sits in a
// pool at most once. A second Put without a Get in between panics, in the
// same pool or another, and leaves the pool as it was; after a Get the
// machine may be put back again.
func TestMachinePoolRefusesDoublePut(t *testing.T) {
	p, other := NewMachinePool(), NewMachinePool()
	m := p.Get(X86(), &MachineConfig{Frames: 64})
	p.Put(m)
	for _, q := range []*MachinePool{p, other} {
		if !panics(func() { q.Put(m) }) {
			t.Fatal("a machine a pool holds was put into a pool again")
		}
	}
	if got := p.Get(ARM(), &MachineConfig{Frames: 32}); got != m {
		t.Fatal("the pool did not hand out its one machine")
	}
	if got := p.Get(X86(), &MachineConfig{Frames: 64}); got == m {
		t.Fatal("the refused Put left a second copy of the machine in the pool")
	}
	p.Put(m) // taken out by Get, so it may go back
	if got := p.Get(X86(), &MachineConfig{Frames: 64}); got != m {
		t.Fatal("a machine put back after a Get was not pooled")
	}
}

// TestPoolReturnsCleanMachine is the pool's differential contract end to
// end: Get, dirty the machine with a mixed workload, Put, Get again — the
// recycled machine must fingerprint identically to a brand-new one.
func TestPoolReturnsCleanMachine(t *testing.T) {
	cfg := &MachineConfig{Frames: 64, NCPUs: 2}
	p := NewMachinePool()
	m := p.Get(X86(), cfg)
	exercise(t, m)
	p.Put(m)
	got := p.Get(X86(), cfg)
	if got != m {
		t.Fatal("pool did not recycle the machine")
	}
	if err := got.Mem.Audit(); err != nil {
		t.Errorf("recycled machine: %v", err)
	}
	fresh := NewMachine(X86(), cfg)
	if a, b := fingerprint(got), fingerprint(fresh); a != b {
		t.Errorf("recycled machine %+v, fresh machine %+v", a, b)
	}
}

// TestNilPoolFallsBack pins that a nil *MachinePool degrades to plain
// NewMachine, so optional threading needs no guards.
func TestNilPoolFallsBack(t *testing.T) {
	var p *MachinePool
	m := p.Get(X86(), &MachineConfig{Frames: 32})
	if m == nil || m.Mem.TotalFrames() != 32 {
		t.Fatal("nil pool did not build a fresh machine")
	}
	p.Put(m) // no-op, must not panic
}

// TestBatchedChargeHelpersMatchLoops pins that the aggregate hw charge paths
// (ChargeN, WorkN, TrapReturnN, SendIPIN, Shootdown of n entries) leave
// counters, cycles and the clock exactly where the per-item loops do.
func TestBatchedChargeHelpersMatchLoops(t *testing.T) {
	const n = 9
	cfg := &MachineConfig{Frames: 64, NCPUs: 3}

	loop := NewMachine(X86(), cfg)
	lc := loop.Rec.Intern("x")
	for i := 0; i < n; i++ {
		loop.CPU.Charge(lc, trace.KTrap, 10)
		loop.CPU.Work(lc, 7)
	}
	for i := 0; i < n; i++ {
		loop.CPU.Trap(lc, true)
		loop.CPU.ReturnTo(lc, Ring3)
	}
	for i := 0; i < n; i++ {
		loop.SendIPI(0, 1)
	}
	for i := 0; i < n; i++ {
		loop.Shootdown(0, 1<<1|1<<2, 1)
	}

	batch := NewMachine(X86(), cfg)
	bc := batch.Rec.Intern("x")
	batch.CPU.ChargeN(bc, trace.KTrap, 10, n)
	batch.CPU.WorkN(bc, 7, n)
	batch.CPU.TrapReturnN(bc, true, Ring3, n)
	batch.SendIPIN(0, 1, n)
	batch.Shootdown(0, 1<<1|1<<2, n)

	if loop.Now() != batch.Now() {
		t.Errorf("clock: loop %d, batch %d", loop.Now(), batch.Now())
	}
	for k := trace.Kind(0); k < trace.Kind(trace.NKinds); k++ {
		if loop.Rec.Counts(k) != batch.Rec.Counts(k) {
			t.Errorf("counts(%v): loop %d, batch %d", k, loop.Rec.Counts(k), batch.Rec.Counts(k))
		}
	}
	for _, comp := range loop.Rec.Components() {
		if loop.Rec.Cycles(comp) != batch.Rec.Cycles(comp) {
			t.Errorf("cycles(%s): loop %d, batch %d", comp, loop.Rec.Cycles(comp), batch.Rec.Cycles(comp))
		}
	}
}

// TestMachineRunSkipsIdleTime pins the event-driven step: the machine's
// event queue jumps the clock across idle gaps instead of stepping through
// them, fires due events in order, and leaves late events queued.
func TestMachineRunSkipsIdleTime(t *testing.T) {
	m := NewMachine(X86(), &MachineConfig{Frames: 16})
	var fired []string
	m.Events.Schedule(1_000, func() { fired = append(fired, "a") })
	m.Events.Schedule(500_000, func() { fired = append(fired, "b") })
	m.Events.Schedule(2_000_000, func() { fired = append(fired, "late") })

	if n := m.Events.RunUntil(1_000_000); n != 2 {
		t.Fatalf("RunUntil fired %d events, want 2", n)
	}
	if m.Now() != 1_000_000 {
		t.Errorf("clock = %d, want 1000000 (idle skip to the horizon)", m.Now())
	}
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Errorf("fired = %v", fired)
	}
	if m.Events.Pending() != 1 {
		t.Errorf("late event lost: pending = %d", m.Events.Pending())
	}
	m.Events.RunUntil(3_000_000)
	if len(fired) != 3 || fired[2] != "late" {
		t.Errorf("RunUntil did not fire the late event: %v", fired)
	}
}
