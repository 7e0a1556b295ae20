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
