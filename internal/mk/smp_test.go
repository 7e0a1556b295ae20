package mk

import (
	"errors"
	"fmt"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// smpRig boots a kernel on an n-CPU machine with one client thread and one
// echo server, both homed on the boot CPU until tests move them.
func smpRig(t testing.TB, ncpus int) (*hw.Machine, *Kernel, *Thread, *Thread) {
	t.Helper()
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512, NCPUs: ncpus})
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
	server := k.NewThread(ss, "server", 2, func(k *Kernel, _ ThreadID, msg Msg) (Msg, error) {
		return msg, nil
	})
	return m, k, client, server
}

func TestSetAffinityValidation(t *testing.T) {
	_, k, client, _ := smpRig(t, 2)
	if err := k.SetAffinity(client.ID, 2); !errors.Is(err, ErrBadCPU) {
		t.Fatalf("out-of-range CPU: got %v, want ErrBadCPU", err)
	}
	if err := k.SetAffinity(client.ID, -1); !errors.Is(err, ErrBadCPU) {
		t.Fatalf("negative CPU: got %v, want ErrBadCPU", err)
	}
	if err := k.SetAffinity(9999, 1); !errors.Is(err, ErrNoSuchThread) {
		t.Fatalf("missing thread: got %v, want ErrNoSuchThread", err)
	}
	if err := k.SetAffinity(client.ID, 1); err != nil {
		t.Fatal(err)
	}
	if client.Affinity != 1 {
		t.Fatalf("affinity = %d, want 1", client.Affinity)
	}
}

// TestCrossCPUIPCChargesIPIs: a call to a partner homed on another CPU
// pays exactly two IPIs (wake and reply); a same-CPU call pays none.
func TestCrossCPUIPCChargesIPIs(t *testing.T) {
	m, k, client, server := smpRig(t, 2)

	if _, err := k.Call(client.ID, server.ID, Msg{Label: 1}); err != nil {
		t.Fatal(err)
	}
	if got := m.Rec.Counts(trace.KIPI); got != 0 {
		t.Fatalf("same-CPU call sent %d IPIs", got)
	}

	if err := k.SetAffinity(server.ID, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Call(client.ID, server.ID, Msg{Label: 2}); err != nil {
		t.Fatal(err)
	}
	if got := m.Rec.Counts(trace.KIPI); got != 2 {
		t.Fatalf("cross-CPU call sent %d IPIs, want 2", got)
	}
	if m.Rec.Cycles("cpu0.ipi") == 0 || m.Rec.Cycles("cpu1.ipi") == 0 {
		t.Fatal("IPI cycles not attributed to both CPUs' components")
	}

	if err := k.Send(client.ID, server.ID, Msg{Label: 3}); err != nil {
		t.Fatal(err)
	}
	if got := m.Rec.Counts(trace.KIPI); got != 3 {
		t.Fatalf("cross-CPU send raised IPI count to %d, want 3", got)
	}
}

// TestThreadNeverOnTwoCPUs schedules every CPU many times over a small
// thread pool (forcing steals) and asserts the cardinal invariant: no
// thread is installed on two CPUs at once.
func TestThreadNeverOnTwoCPUs(t *testing.T) {
	const ncpus = 4
	_, k, client, server := smpRig(t, ncpus)
	// Two more threads, all homed on CPU 0, so CPUs 1-3 must steal.
	sp, err := k.NewSpace("pool", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	threads := []*Thread{client, server}
	for i := 0; i < 2; i++ {
		threads = append(threads, k.NewThread(sp, fmt.Sprintf("pool%d", i), 3, nil))
	}
	for round := 0; round < 8; round++ {
		for cpu := 0; cpu < ncpus; cpu++ {
			k.ScheduleOn(cpu)
			seen := map[*Thread]int{}
			for c := 0; c < ncpus; c++ {
				cur := k.CurrentOn(c)
				if cur == nil {
					continue
				}
				if prev, dup := seen[cur]; dup {
					t.Fatalf("round %d: thread %q on CPUs %d and %d at once",
						round, cur.Name, prev, c)
				}
				seen[cur] = c
			}
		}
	}
	if !stole(threads) {
		t.Fatal("scenario did not exercise work stealing")
	}
}

// stole reports whether a thread has left CPU 0, where every thread of
// these tests starts and which only a steal moves it from.
func stole(threads []*Thread) bool {
	for _, th := range threads {
		if th.Affinity != 0 {
			return true
		}
	}
	return false
}

// TestWorkStealingPreservesSwitches: stealing moves where a switch happens
// but never mints or loses one — every installation of a new thread is
// counted exactly once.
func TestWorkStealingPreservesSwitches(t *testing.T) {
	const ncpus = 3
	m, k, client, server := smpRig(t, ncpus)
	sp, err := k.NewSpace("pool", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	threads := []*Thread{client, server}
	for i := 0; i < 4; i++ {
		threads = append(threads, k.NewThread(sp, fmt.Sprintf("pool%d", i), 3, nil))
	}
	snap := m.Rec.Snapshot()
	installs := uint64(0)
	for round := 0; round < 6; round++ {
		for cpu := 0; cpu < ncpus; cpu++ {
			before := k.CurrentOn(cpu)
			if got := k.ScheduleOn(cpu); got != nil && got != before {
				installs++
			}
		}
	}
	if got := m.Rec.CountsSince(snap, trace.KContextSwitch); got != installs {
		t.Fatalf("KContextSwitch = %d but observed %d installations", got, installs)
	}
	if !stole(threads) {
		t.Fatal("scenario did not exercise work stealing")
	}
}

// TestUnmapShootsDownRunningSpaces: unmapping a page of a space that is
// installed on other CPUs invalidates their TLBs by shootdown; a space
// running nowhere else costs nothing.
func TestUnmapShootsDownRunningSpaces(t *testing.T) {
	m, k, _, _ := smpRig(t, 3)
	sp, err := k.NewSpace("shared", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		w := k.NewThread(sp, fmt.Sprintf("w%d", c), 5, nil)
		if c > 0 {
			if err := k.SetAffinity(w.ID, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := k.AllocAndMap(sp, 0x100, 2, hw.PermRW); err != nil {
		t.Fatal(err)
	}

	k.UnmapPage(sp, 0x100) // space not installed anywhere yet
	if got := m.Rec.Counts(trace.KTLBShootdown); got != 0 {
		t.Fatalf("idle space unmap shot down %d CPUs", got)
	}

	for c := 0; c < 3; c++ {
		k.ScheduleOn(c)
	}
	k.UnmapPage(sp, 0x101)
	// CPUs 1 and 2 run the space's workers; CPU 0 flushed locally.
	if got := m.Rec.Counts(trace.KTLBShootdown); got != 2 {
		t.Fatalf("unmap of a live space shot down %d CPUs, want 2", got)
	}
}

// TestUniprocessorKernelChargesNoSMP is the accounting guard for E1–E11:
// a full IPC + schedule + unmap workout on a default 1-CPU machine leaves
// every SMP counter and component at zero.
func TestUniprocessorKernelChargesNoSMP(t *testing.T) {
	m, k, client, server := smpRig(t, 1)
	for i := 0; i < 10; i++ {
		if _, err := k.Call(client.ID, server.ID, Msg{Label: uint32(i)}); err != nil {
			t.Fatal(err)
		}
		k.ScheduleOn(0)
	}
	if _, err := k.AllocAndMap(server.Space, 0x200, 4, hw.PermRW); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		k.UnmapPage(server.Space, 0x200+hw.VPN(p))
	}
	if m.Rec.Counts(trace.KIPI) != 0 || m.Rec.Counts(trace.KTLBShootdown) != 0 {
		t.Fatal("uniprocessor kernel counted SMP events")
	}
	if got := m.Rec.CyclesPrefix("cpu"); got != 0 {
		t.Fatalf("uniprocessor kernel charged %d SMP cycles", got)
	}
}

// TestUnmapPageAllocatesNothing: unmapping a page of a space that runs on
// every CPU of a 4-CPU kernel finds the shootdown targets and interrupts
// them without allocating.
func TestUnmapPageAllocatesNothing(t *testing.T) {
	m, k, _, _ := smpRig(t, 4)
	sp, err := k.NewSpace("shared", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		w := k.NewThread(sp, fmt.Sprintf("w%d", c), 5, nil)
		if err := k.SetAffinity(w.ID, c); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 4; c++ {
		k.ScheduleOn(c)
	}
	frames, err := k.AllocAndMap(sp, 0x100, 1, hw.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Rec.Counts(trace.KTLBShootdown)
	if n := testing.AllocsPerRun(100, func() {
		k.MapPage(sp, 0x100, frames[0], hw.PermRW)
		k.UnmapPage(sp, 0x100)
	}); n != 0 {
		t.Errorf("map + unmap of a page live on 4 CPUs allocates %.1f times", n)
	}
	// 101 unmaps (AllocsPerRun's warm-up included), each shooting down the
	// three CPUs other than the initiator.
	if got := m.Rec.Counts(trace.KTLBShootdown) - before; got != 101*3 {
		t.Fatalf("%d shootdowns, want %d", got, 101*3)
	}
}
