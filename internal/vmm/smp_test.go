package vmm

import (
	"errors"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// smpHyp boots a hypervisor on an n-CPU machine.
func smpHyp(t testing.TB, ncpus int) (*hw.Machine, *Hypervisor, *Domain) {
	t.Helper()
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 1024, NCPUs: ncpus})
	h, d0, err := New(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	return m, h, d0
}

func TestPlaceVCPUsValidation(t *testing.T) {
	_, h, _ := smpHyp(t, 2)
	d, err := h.CreateDomain("guest", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.PlaceVCPUs(d.ID, 1<<0|1<<2); !errors.Is(err, ErrBadPCPU) {
		t.Fatalf("out-of-range pCPU: got %v, want ErrBadPCPU", err)
	}
	if err := h.PlaceVCPUs(DomID(99), 1<<0); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("missing domain: got %v, want ErrNoSuchDomain", err)
	}
	if d.remote != 0 {
		t.Fatalf("unplaced or refused domain has remote pCPUs %b", d.remote)
	}
	if err := h.PlaceVCPUs(d.ID, 1<<0|1<<1); err != nil {
		t.Fatal(err)
	}
	if d.remote != 1<<1 {
		t.Fatalf("remote pCPUs = %b, want pCPU 1", d.remote)
	}
	if err := h.PlaceVCPUs(d.ID, 0); err != nil {
		t.Fatal(err)
	}
	if d.remote != 0 {
		t.Fatalf("an empty placement left remote pCPUs %b, want the uniprocessor arrangement", d.remote)
	}
}

// TestShadowInvalidationShootsDown: with a guest's vCPUs placed on other
// pCPUs, shadow-page-table invalidation (trap-and-emulate write and
// paravirtual unmap alike) broadcasts a shootdown to each of them.
func TestShadowInvalidationShootsDown(t *testing.T) {
	m, h, _ := smpHyp(t, 3)
	g, err := h.CreateDomain("g", 16)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := h.EnableShadowMMU(g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.GuestPTWrite(0x10, 1, hw.PermRW, true); err != nil {
		t.Fatal(err)
	}
	if got := m.Rec.Counts(trace.KTLBShootdown); got != 0 {
		t.Fatalf("unplaced guest caused %d shootdowns", got)
	}

	if err := h.PlaceVCPUs(g.ID, 1<<1|1<<2); err != nil {
		t.Fatal(err)
	}
	if err := sm.GuestPTWrite(0x11, 2, hw.PermRW, true); err != nil {
		t.Fatal(err)
	}
	if got := m.Rec.Counts(trace.KTLBShootdown); got != 2 {
		t.Fatalf("placed guest PT write caused %d shootdowns, want 2", got)
	}
	if err := h.MMUUnmap(g.ID, 0x11); err != nil {
		t.Fatal(err)
	}
	if got := m.Rec.Counts(trace.KTLBShootdown); got != 4 {
		t.Fatalf("MMUUnmap raised shootdowns to %d, want 4", got)
	}
	if m.Rec.Cycles("cpu1.shootdown") == 0 || m.Rec.Cycles("cpu2.shootdown") == 0 {
		t.Fatal("shootdown cycles not attributed to the target CPUs")
	}
}

// TestDirtyLogArmBroadcast: arming log-dirty mode on a placed guest pays
// one remote flush per placed pCPU, per (re)arm.
func TestDirtyLogArmBroadcast(t *testing.T) {
	m, h, _ := smpHyp(t, 4)
	g, err := h.CreateDomain("g", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.PlaceVCPUs(g.ID, m.AllCPUs()); err != nil {
		t.Fatal(err)
	}
	dl, err := h.EnableDirtyLog(g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Rec.Counts(trace.KTLBShootdown); got != 3 {
		t.Fatalf("arm broadcast hit %d CPUs, want 3", got)
	}
	if err := h.GuestMemWrite(g.ID, 0, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	dl.Rearm()
	if got := m.Rec.Counts(trace.KTLBShootdown); got != 6 {
		t.Fatalf("re-arm raised shootdowns to %d, want 6", got)
	}
	h.DisableDirtyLog(g.ID)
}

// TestEventDeliveryKicksRemoteDomain: notifying a channel whose remote
// domain is placed off the boot CPU pays the kick IPI; an unplaced remote
// does not.
func TestEventDeliveryKicksRemoteDomain(t *testing.T) {
	m, h, _ := smpHyp(t, 2)
	g, err := h.CreateDomain("g", 16)
	if err != nil {
		t.Fatal(err)
	}
	p0, _, err := h.BindChannel(Dom0, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.NotifyChannel(Dom0, p0); err != nil {
		t.Fatal(err)
	}
	if got := m.Rec.Counts(trace.KIPI); got != 0 {
		t.Fatalf("unplaced remote cost %d IPIs", got)
	}
	if err := h.PlaceVCPUs(g.ID, 1<<1); err != nil {
		t.Fatal(err)
	}
	if err := h.NotifyChannel(Dom0, p0); err != nil {
		t.Fatal(err)
	}
	if got := m.Rec.Counts(trace.KIPI); got != 1 {
		t.Fatalf("remote delivery cost %d IPIs, want 1", got)
	}
	if err := h.SendVIRQ(g.ID, 3); err != nil {
		t.Fatal(err)
	}
	if got := m.Rec.Counts(trace.KIPI); got != 2 {
		t.Fatalf("remote VIRQ raised IPIs to %d, want 2", got)
	}
}

// TestUniprocessorHypervisorChargesNoSMP mirrors the mk-side guard: a full
// hypercall + event + shadow workout on a 1-CPU machine leaves every SMP
// counter at zero.
func TestUniprocessorHypervisorChargesNoSMP(t *testing.T) {
	m, h, _ := smpHyp(t, 1)
	g, err := h.CreateDomain("g", 16)
	if err != nil {
		t.Fatal(err)
	}
	p0, _, err := h.BindChannel(Dom0, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := h.NotifyChannel(Dom0, p0); err != nil {
			t.Fatal(err)
		}
		if err := h.MMUUpdate(g.ID, hw.VPN(0x20+i), i, hw.PermRW, true); err != nil {
			t.Fatal(err)
		}
		if err := h.MMUUnmap(g.ID, hw.VPN(0x20+i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Rec.Counts(trace.KIPI) != 0 || m.Rec.Counts(trace.KTLBShootdown) != 0 {
		t.Fatal("uniprocessor hypervisor counted SMP events")
	}
	if got := m.Rec.CyclesPrefix("cpu"); got != 0 {
		t.Fatalf("uniprocessor hypervisor charged %d SMP cycles", got)
	}
}
