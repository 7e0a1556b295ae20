package vmm

import (
	"errors"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// vrig is a booted hypervisor with dom0 and one guest domain.
type vrig struct {
	m    *hw.Machine
	h    *Hypervisor
	dom0 *Domain
	domU *Domain
}

func newVrig(t testing.TB, arch *hw.Arch) *vrig {
	t.Helper()
	m := hw.NewMachine(arch, &hw.MachineConfig{Frames: 512})
	h, d0, err := New(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	dU, err := h.CreateDomain("domU1", 64)
	if err != nil {
		t.Fatal(err)
	}
	return &vrig{m: m, h: h, dom0: d0, domU: dU}
}

// audit fails the test at the first P2M bookkeeping violation on any of
// the hypervisors.
func audit(t testing.TB, hs ...*Hypervisor) {
	t.Helper()
	for _, h := range hs {
		if err := h.Audit(); err != nil {
			t.Fatal(err)
		}
	}
}

// readFrame returns the first n bytes frame f reads as.
func readFrame(m *hw.PhysMem, f hw.FrameID, n int) []byte {
	b := make([]byte, n)
	m.Read(f, 0, b)
	return b
}

func TestBootCreatesDom0Privileged(t *testing.T) {
	r := newVrig(t, hw.X86())
	if r.dom0.ID != Dom0 || !r.dom0.Privileged {
		t.Fatal("dom0 must be domain 0 and privileged")
	}
	if r.domU.Privileged {
		t.Fatal("guest must be unprivileged")
	}
	if len(r.h.Domains()) != 2 {
		t.Fatalf("domains = %d, want 2", len(r.h.Domains()))
	}
	if r.m.Mem.OwnedBy(r.dom0.Comp()) != 64 {
		t.Fatalf("dom0 owns %d frames, want 64", r.m.Mem.OwnedBy(r.dom0.Comp()))
	}
}

func TestHypercallCharges(t *testing.T) {
	r := newVrig(t, hw.X86())
	snap := r.m.Rec.Snapshot()
	c0 := r.m.Rec.Cycles(HypervisorComponent)
	if err := r.h.Hypercall(r.domU.ID, "test", 100); err != nil {
		t.Fatal(err)
	}
	if got := r.m.Rec.CountsSince(snap, trace.KHypercall); got != 1 {
		t.Fatalf("hypercalls = %d, want 1", got)
	}
	if r.m.Rec.Cycles(HypervisorComponent) <= c0 {
		t.Fatal("monitor cycles not charged")
	}
}

func TestHypercallFromDeadDomain(t *testing.T) {
	r := newVrig(t, hw.X86())
	r.h.DestroyDomain(r.domU.ID)
	if err := r.h.Hypercall(r.domU.ID, "x", 10); !errors.Is(err, ErrDomainDead) {
		t.Fatalf("err = %v, want ErrDomainDead", err)
	}
}

func TestMMUUpdateValidatesOwnership(t *testing.T) {
	r := newVrig(t, hw.X86())
	if err := r.h.MMUUpdate(r.domU.ID, 0x100, 5, hw.PermRW, true); err != nil {
		t.Fatal(err)
	}
	e, ok := r.domU.PT.Lookup(0x100)
	if !ok || e.Frame != r.domU.FrameAt(5) {
		t.Fatal("mapping not installed")
	}
	// Out-of-range guest page: rejected.
	if err := r.h.MMUUpdate(r.domU.ID, 0x101, 9999, hw.PermRW, true); !errors.Is(err, ErrBadPTE) {
		t.Fatalf("err = %v, want ErrBadPTE", err)
	}
	// A permission bit no entry holds: rejected, not a monitor panic.
	if err := r.h.MMUUpdate(r.domU.ID, 0x102, 5, hw.PermRWX+1, true); !errors.Is(err, ErrBadPTE) {
		t.Fatalf("err = %v, want ErrBadPTE", err)
	}
	if _, ok := r.domU.PT.Lookup(0x102); ok {
		t.Fatal("an entry with a permission bit outside PermRWX was installed")
	}
	if r.m.Rec.Counts(trace.KShadowPTUpdate) < 2 {
		t.Fatal("shadow PT updates not recorded")
	}
}

func TestMMUUpdateRejectsFlippedAwayFrame(t *testing.T) {
	r := newVrig(t, hw.X86())
	// Grant a dom0 frame to domU and flip it; dom0 must then be unable to
	// remap the frame it no longer owns.
	f := r.dom0.FrameAt(3)
	ref, err := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.GrantTransfer(r.domU.ID, r.dom0.ID, ref); err != nil {
		t.Fatal(err)
	}
	if err := r.h.MMUUpdate(r.dom0.ID, 0x200, 3, hw.PermRW, true); !errors.Is(err, ErrBadPTE) {
		t.Fatalf("err = %v, want ErrBadPTE (frame was flipped away)", err)
	}
}

func TestEventChannelRoundTrip(t *testing.T) {
	r := newVrig(t, hw.X86())
	var got []Port
	r.domU.SetHooks(GuestHooks{OnEvent: func(p Port) { got = append(got, p) }})
	p0, pU, err := r.h.BindChannel(r.dom0.ID, r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.h.NotifyChannel(r.dom0.ID, p0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != pU {
		t.Fatalf("upcalls = %v, want [%d]", got, pU)
	}
	if r.m.Rec.Counts(trace.KEvtchnSend) != 1 {
		t.Fatal("event send not recorded")
	}
}

func TestNotifyDeadRemote(t *testing.T) {
	r := newVrig(t, hw.X86())
	p0, _, _ := r.h.BindChannel(r.dom0.ID, r.domU.ID)
	r.h.DestroyDomain(r.domU.ID)
	err := r.h.NotifyChannel(r.dom0.ID, p0)
	if err == nil {
		t.Fatal("notify to destroyed domain should fail")
	}
	// Dom0 itself is unharmed: the failure is confined to the user of the
	// dead service, as in §3.1.
	if !r.h.Alive(r.dom0.ID) {
		t.Fatal("dom0 harmed by guest death")
	}
}

func TestNotifyBadPort(t *testing.T) {
	r := newVrig(t, hw.X86())
	if err := r.h.NotifyChannel(r.dom0.ID, 999); !errors.Is(err, ErrBadPort) {
		t.Fatalf("err = %v, want ErrBadPort", err)
	}
}

func TestGrantMapAndCopy(t *testing.T) {
	r := newVrig(t, hw.X86())
	src := r.dom0.FrameAt(1)
	r.m.Mem.Write(src, 0, []byte("grant-payload"))
	ref, err := r.h.GrantAccess(r.dom0.ID, src, r.domU.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	// Map path.
	if err := r.h.GrantMap(r.domU.ID, r.dom0.ID, ref, 0x300); err != nil {
		t.Fatal(err)
	}
	e, ok := r.domU.PT.Lookup(0x300)
	if !ok || e.Frame != src || e.Perms != hw.PermR {
		t.Fatalf("grant map wrong: %+v ok=%v", e, ok)
	}
	if err := r.h.GrantUnmap(r.domU.ID, r.dom0.ID, ref, 0x300); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.domU.PT.Lookup(0x300); ok {
		t.Fatal("grant unmap left mapping")
	}
	// Copy path.
	dst := r.domU.FrameAt(0)
	if err := r.h.GrantCopy(r.domU.ID, r.dom0.ID, ref, dst, 13); err != nil {
		t.Fatal(err)
	}
	if string(readFrame(r.m.Mem, dst, 13)) != "grant-payload" {
		t.Fatal("grant copy corrupted data")
	}
	if r.m.Rec.Counts(trace.KGrantCopy) != 1 || r.m.Rec.Counts(trace.KGrantMap) != 1 {
		t.Fatal("grant events not recorded")
	}
}

func TestGrantValidation(t *testing.T) {
	r := newVrig(t, hw.X86())
	// Granting a frame you don't own is rejected.
	foreign := r.domU.FrameAt(0)
	if _, err := r.h.GrantAccess(r.dom0.ID, foreign, r.domU.ID, false); !errors.Is(err, ErrFrameNotOwned) {
		t.Fatalf("err = %v, want ErrFrameNotOwned", err)
	}
	// Using a grant addressed to someone else is rejected.
	f := r.dom0.FrameAt(0)
	other, _ := r.h.CreateDomain("domU2", 8)
	ref, _ := r.h.GrantAccess(r.dom0.ID, f, other.ID, false)
	if err := r.h.GrantMap(r.domU.ID, r.dom0.ID, ref, 0x300); !errors.Is(err, ErrBadGrant) {
		t.Fatalf("err = %v, want ErrBadGrant", err)
	}
	// Revoked grants fail.
	r.h.GrantRevoke(r.dom0.ID, ref)
	if err := r.h.GrantMap(other.ID, r.dom0.ID, ref, 0x300); !errors.Is(err, ErrGrantRevoked) {
		t.Fatalf("err = %v, want ErrGrantRevoked", err)
	}
}

func TestGrantTransferFlipsOwnership(t *testing.T) {
	r := newVrig(t, hw.X86())
	f := r.dom0.FrameAt(2)
	r.m.Mem.Write(f, 0, []byte("flipped"))
	nU := len(r.domU.Frames())
	ref, _ := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, false)
	got, err := r.h.GrantTransfer(r.domU.ID, r.dom0.ID, ref)
	if err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if got != f {
		t.Fatal("wrong frame returned")
	}
	if !r.domU.OwnsFrame(f) {
		t.Fatal("ownership did not move")
	}
	if len(r.domU.Frames()) != nU+1 {
		t.Fatal("receiver frame list not extended")
	}
	if r.dom0.FrameAt(2) != hw.NoFrame {
		t.Fatal("donor pseudo-physical map must have a hole after the flip")
	}
	if string(readFrame(r.m.Mem, f, 7)) != "flipped" {
		t.Fatal("flip must not disturb contents")
	}
	if r.m.Rec.Counts(trace.KPageFlip) != 1 {
		t.Fatal("page flip not recorded")
	}
	if r.m.Rec.Counts(trace.KTLBFlush) == 0 {
		t.Fatal("page flip must shoot down the TLB")
	}
	// A flip consumes the grant.
	if _, err := r.h.GrantTransfer(r.domU.ID, r.dom0.ID, ref); !errors.Is(err, ErrGrantRevoked) {
		t.Fatalf("second flip err = %v, want ErrGrantRevoked", err)
	}
}

func TestDanglingGrantsAfterFlipRefused(t *testing.T) {
	// The same frame granted twice: after one grant's flip moves the frame,
	// the other grant dangles and must be dead for every operation —
	// otherwise a second transfer reassigns a frame its granter no longer
	// owns and corrupts the ownership ledger (caught originally by
	// TestQuickGrantOwnershipInvariants).
	r := newVrig(t, hw.X86())
	other, err := r.h.CreateDomain("domU2", 8)
	if err != nil {
		t.Fatal(err)
	}
	f := r.dom0.FrameAt(6)
	ref1, _ := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, false)
	ref2, _ := r.h.GrantAccess(r.dom0.ID, f, other.ID, false)
	refRO, _ := r.h.GrantAccess(r.dom0.ID, f, other.ID, true)
	if _, err := r.h.GrantTransfer(r.domU.ID, r.dom0.ID, ref1); err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	// Transfer through the dangling grant must refuse, leaving the ledger
	// and both P2M maps untouched.
	if _, err := r.h.GrantTransfer(other.ID, r.dom0.ID, ref2); !errors.Is(err, ErrGrantRevoked) {
		t.Fatalf("dangling transfer err = %v, want ErrGrantRevoked", err)
	}
	if !r.domU.OwnsFrame(f) {
		t.Fatal("dangling transfer moved ownership")
	}
	audit(t, r.h)
	if len(other.Frames()) != 8 {
		t.Fatal("dangling transfer grew the receiver's frame list")
	}
	// Map and copy through dangling grants must refuse too: the frame now
	// holds another domain's memory.
	if err := r.h.GrantMap(other.ID, r.dom0.ID, refRO, 0x300); !errors.Is(err, ErrGrantRevoked) {
		t.Fatalf("dangling map err = %v, want ErrGrantRevoked", err)
	}
	if err := r.h.GrantCopy(other.ID, r.dom0.ID, refRO, other.FrameAt(0), 16); !errors.Is(err, ErrGrantRevoked) {
		t.Fatalf("dangling copy err = %v, want ErrGrantRevoked", err)
	}
	// A read-only dangling grant still reports read-only first on
	// transfer (the monitor checks the grant's own mode before its
	// backing frame).
	if _, err := r.h.GrantTransfer(other.ID, r.dom0.ID, refRO); !errors.Is(err, ErrGrantReadOnly) {
		t.Fatalf("ro dangling transfer err = %v, want ErrGrantReadOnly", err)
	}
	audit(t, r.h)
}

func TestGrantTransferReadOnlyRefused(t *testing.T) {
	r := newVrig(t, hw.X86())
	f := r.dom0.FrameAt(2)
	ref, _ := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, true)
	if _, err := r.h.GrantTransfer(r.domU.ID, r.dom0.ID, ref); !errors.Is(err, ErrGrantReadOnly) {
		t.Fatalf("err = %v, want ErrGrantReadOnly", err)
	}
}

func TestPageFlipCostIndependentOfPayload(t *testing.T) {
	// The heart of E1: a flip costs the same whether the page carries 64
	// bytes or 4096.
	r := newVrig(t, hw.X86())
	gpn := 0
	cost := func(fill int) hw.Cycles {
		f := r.dom0.FrameAt(gpn)
		gpn++
		payload := make([]byte, fill)
		for i := range payload {
			payload[i] = byte(i)
		}
		r.m.Mem.Write(f, 0, payload)
		ref, err := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, false)
		if err != nil {
			t.Fatal(err)
		}
		t0 := r.m.Now()
		if _, err := r.h.GrantTransfer(r.domU.ID, r.dom0.ID, ref); err != nil {
			t.Fatal(err)
		}
		return r.m.Now() - t0
	}
	small := cost(64)
	large := cost(4096)
	if small != large {
		t.Fatalf("flip cost varies with payload: 64B=%d 4096B=%d", small, large)
	}
}

func TestGrantCopyCostScalesWithPayload(t *testing.T) {
	r := newVrig(t, hw.X86())
	cost := func(n uint64) hw.Cycles {
		f := r.dom0.FrameAt(1)
		ref, _ := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, true)
		dst := r.domU.FrameAt(0)
		t0 := r.m.Now()
		if err := r.h.GrantCopy(r.domU.ID, r.dom0.ID, ref, dst, n); err != nil {
			t.Fatal(err)
		}
		return r.m.Now() - t0
	}
	if !(cost(4096) > cost(64)) {
		t.Fatal("copy cost must scale with bytes")
	}
}

func TestFastPathLifecycle(t *testing.T) {
	r := newVrig(t, hw.X86())
	r.domU.SetHooks(GuestHooks{OnSyscall: func(no uint32, args []uint64) []uint64 {
		r.m.CPU.Work(r.domU.Comp(), 200)
		return []uint64{uint64(no)}
	}})
	// Guest boots with truncated segments (XenoLinux layout).
	for reg := hw.SegDS; reg <= hw.SegGS; reg++ {
		if err := r.h.LoadGuestSegment(r.domU.ID, reg, hw.Segment{Base: 0, Limit: VMMBase - 1, DPL: hw.Ring3}); err != nil {
			t.Fatal(err)
		}
	}
	on, err := r.h.EnableFastPath(r.domU.ID)
	if err != nil || !on {
		t.Fatalf("fast path should enable: on=%v err=%v", on, err)
	}

	// Fast syscall: monitor not involved.
	mon0 := r.m.Rec.Cycles(HypervisorComponent)
	ret, err := r.h.GuestSyscall(r.domU.ID, 20, nil)
	if err != nil || ret[0] != 20 {
		t.Fatalf("syscall failed: %v %v", ret, err)
	}
	if r.m.Rec.Cycles(HypervisorComponent) != mon0 {
		t.Fatal("fast path must not charge the monitor")
	}
	if total, fast := r.m.Rec.Counts(trace.KGuestUserToKernel), r.m.Rec.Counts(trace.KSyscallFastPath); total != 1 || fast != 1 {
		t.Fatalf("syscall counts = %d/%d, want 1/1", total, fast)
	}

	// glibc TLS: a flat GS segment. The monitor must kill the shortcut.
	if err := r.h.LoadGuestSegment(r.domU.ID, hw.SegGS, hw.Segment{Base: 0, Limit: ^uint64(0), DPL: hw.Ring3}); err != nil {
		t.Fatal(err)
	}
	if r.h.FastPathActive(r.domU.ID) {
		t.Fatal("flat segment must disable the fast path")
	}
	mon1 := r.m.Rec.Cycles(HypervisorComponent)
	if _, err := r.h.GuestSyscall(r.domU.ID, 21, nil); err != nil {
		t.Fatal(err)
	}
	if r.m.Rec.Cycles(HypervisorComponent) <= mon1 {
		t.Fatal("bounced syscall must charge the monitor")
	}
	if r.m.Rec.Counts(trace.KExceptionBounce) == 0 {
		t.Fatal("bounce not recorded")
	}
}

func TestFastPathPolicyAblation(t *testing.T) {
	r := newVrig(t, hw.X86())
	for reg := hw.SegDS; reg <= hw.SegGS; reg++ {
		r.h.LoadGuestSegment(r.domU.ID, reg, hw.Segment{Base: 0, Limit: VMMBase - 1, DPL: hw.Ring3})
	}
	r.h.FastPathPolicy = false
	on, _ := r.h.EnableFastPath(r.domU.ID)
	if on {
		t.Fatal("policy off must refuse the fast path")
	}
}

func TestFastPathUnavailableWithoutSegmentation(t *testing.T) {
	r := newVrig(t, hw.AMD64())
	on, err := r.h.EnableFastPath(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	if on {
		t.Fatal("amd64 (no segment limits) cannot support the trap-gate shortcut")
	}
}

func TestSyscallCostOrdering(t *testing.T) {
	// fast path < bounced path, on the same machine state.
	r := newVrig(t, hw.X86())
	r.domU.SetHooks(GuestHooks{OnSyscall: func(no uint32, args []uint64) []uint64 { return nil }})
	for reg := hw.SegDS; reg <= hw.SegGS; reg++ {
		r.h.LoadGuestSegment(r.domU.ID, reg, hw.Segment{Base: 0, Limit: VMMBase - 1, DPL: hw.Ring3})
	}
	r.h.EnableFastPath(r.domU.ID)
	t0 := r.m.Now()
	r.h.GuestSyscall(r.domU.ID, 1, nil)
	fastCost := r.m.Now() - t0

	r.h.LoadGuestSegment(r.domU.ID, hw.SegGS, hw.Segment{Base: 0, Limit: ^uint64(0), DPL: hw.Ring3})
	t1 := r.m.Now()
	r.h.GuestSyscall(r.domU.ID, 1, nil)
	slowCost := r.m.Now() - t1
	if fastCost >= slowCost {
		t.Fatalf("fast (%d) must beat bounced (%d)", fastCost, slowCost)
	}
}

func TestGuestException(t *testing.T) {
	r := newVrig(t, hw.X86())
	handled := false
	ok, err := r.h.GuestException(r.domU.ID, func() {
		handled = true
		r.m.CPU.Work(r.domU.Comp(), 50)
	})
	if err != nil || !ok || !handled {
		t.Fatalf("exception not handled: ok=%v err=%v", ok, err)
	}
	if r.m.Rec.Counts(trace.KExceptionBounce) != 1 {
		t.Fatal("bounce not recorded")
	}
	// Unhandled exception.
	ok, err = r.h.GuestException(r.domU.ID, nil)
	if err != nil || ok {
		t.Fatal("nil handler must report unhandled")
	}
}

func TestRouteIRQRequiresPrivilege(t *testing.T) {
	r := newVrig(t, hw.X86())
	if err := r.h.RouteIRQ(3, r.domU.ID); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("err = %v, want ErrNotPrivileged", err)
	}
	hits := 0
	r.dom0.SetHooks(GuestHooks{OnVIRQ: func(v int) { hits++ }})
	if err := r.h.RouteIRQ(3, r.dom0.ID); err != nil {
		t.Fatal(err)
	}
	r.m.IRQ.Raise(3)
	r.m.IRQ.DispatchPending(r.m.Rec.Intern(HypervisorComponent))
	if hits != 1 {
		t.Fatalf("dom0 saw %d injections, want 1", hits)
	}
	if r.m.Rec.Counts(trace.KHardIRQInject) != 1 {
		t.Fatal("injection not recorded")
	}
}

func TestIRQToDeadDom0Dropped(t *testing.T) {
	r := newVrig(t, hw.X86())
	r.dom0.SetHooks(GuestHooks{OnVIRQ: func(v int) { t.Fatal("dead dom0 handler ran") }})
	r.h.RouteIRQ(3, r.dom0.ID)
	r.h.DestroyDomain(r.dom0.ID)
	r.m.IRQ.Raise(3)
	r.m.IRQ.DispatchPending(r.m.Rec.Intern(HypervisorComponent)) // must not panic
}

func TestSendVIRQ(t *testing.T) {
	r := newVrig(t, hw.X86())
	var got []int
	r.domU.SetHooks(GuestHooks{OnVIRQ: func(v int) { got = append(got, v) }})
	if err := r.h.SendVIRQ(r.domU.ID, 7); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("virqs = %v, want [7]", got)
	}
}

func TestDestroyDomainReleasesResources(t *testing.T) {
	r := newVrig(t, hw.X86())
	free0 := r.m.Mem.FreeFrames()
	if err := r.h.DestroyDomain(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	if r.m.Mem.FreeFrames() != free0+64 {
		t.Fatalf("freed %d frames, want 64", r.m.Mem.FreeFrames()-free0)
	}
	if r.h.Alive(r.domU.ID) {
		t.Fatal("domain still alive")
	}
	if r.m.Rec.Counts(trace.KFault) != 1 {
		t.Fatal("destruction not recorded as fault")
	}
	// Idempotent.
	if err := r.h.DestroyDomain(r.domU.ID); err != nil {
		t.Fatal("second destroy should be a no-op")
	}
}

func TestDestroyDomainDoesNotFreeFlippedFrames(t *testing.T) {
	r := newVrig(t, hw.X86())
	f := r.dom0.FrameAt(0)
	ref, _ := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, false)
	r.h.GrantTransfer(r.domU.ID, r.dom0.ID, ref)
	audit(t, r.h)
	// Destroy the *previous* owner; the flipped frame now belongs to domU
	// and must survive.
	r.h.DestroyDomain(r.dom0.ID)
	audit(t, r.h)
	if got := r.m.Mem.Owner(f); got != r.domU.Comp() {
		t.Fatalf("flipped frame owner = %q after donor death", r.m.Rec.Registry().Name(got))
	}
}

func TestDomainChurnReturnsToBaseline(t *testing.T) {
	// The churn regression: a create -> bind -> destroy loop must leave no
	// per-domain residue in the monitor — domain map, creation order,
	// channel table and physical memory all return to their baseline
	// sizes.
	r := newVrig(t, hw.X86())
	livePorts := func() int {
		n := 0
		for _, ch := range r.h.ports {
			if ch != nil {
				n++
			}
		}
		return n
	}
	liveDomains := func() int {
		n := 0
		for _, d := range r.h.domains {
			if d != nil {
				n++
			}
		}
		return n
	}
	baseDomains := liveDomains()
	baseOrder := len(r.h.order)
	basePorts := livePorts()
	baseFree := r.m.Mem.FreeFrames()

	const cycles = 50
	for i := 0; i < cycles; i++ {
		d, err := r.h.CreateDomain("churn", 8)
		if err != nil {
			t.Fatal(err)
		}
		audit(t, r.h)
		p0, _, err := r.h.BindChannel(r.dom0.ID, d.ID)
		if err != nil {
			t.Fatal(err)
		}
		d.SetHooks(GuestHooks{OnEvent: func(Port) {}})
		if err := r.h.NotifyChannel(r.dom0.ID, p0); err != nil {
			t.Fatal(err)
		}
		if err := r.h.DestroyDomain(d.ID); err != nil {
			t.Fatal(err)
		}
		audit(t, r.h)
	}

	if n := liveDomains(); n != baseDomains {
		t.Errorf("live domain count grew: %d -> %d", baseDomains, n)
	}
	if n := len(r.h.order); n != baseOrder {
		t.Errorf("creation-order list grew: %d -> %d", baseOrder, n)
	}
	if n := livePorts(); n != basePorts {
		t.Errorf("live channels grew: %d -> %d", basePorts, n)
	}
	// Reclaimed slots are reused, so the slot table grows by at most the
	// single slot the loop keeps in flight.
	if n := len(r.h.ports); n > basePorts+1 {
		t.Errorf("channel slot table grew unboundedly: %d slots after %d cycles", n, cycles)
	}
	if free := r.m.Mem.FreeFrames(); free != baseFree {
		t.Errorf("frames leaked: %d free -> %d", baseFree, free)
	}

	// Destroyed ids still answer with the dead-domain error, never a
	// ghost entry; unknown ids stay distinct.
	if err := r.h.Hypercall(r.domU.ID+1, "x", 0); !errors.Is(err, ErrDomainDead) {
		t.Errorf("destroyed id err = %v, want ErrDomainDead", err)
	}
	if err := r.h.Hypercall(9999, "x", 0); !errors.Is(err, ErrNoSuchDomain) {
		t.Errorf("unknown id err = %v, want ErrNoSuchDomain", err)
	}
}

// TestDomIDExhaustionRefusesBuild: ids are never reused, so once all 2^16
// have been handed out the next build is refused. It must not wrap to
// Dom0's id and replace Dom0 in the domain table.
func TestDomIDExhaustionRefusesBuild(t *testing.T) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 64})
	h, d0, err := New(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	var last DomID
	builds := 0
	for ; builds <= 1<<16; builds++ {
		d, err := h.CreateDomain("churn", 1)
		if errors.Is(err, ErrDomIDsExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		last = d.ID
		if err := h.DestroyDomain(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 1<<16-1 {
		t.Fatalf("build refused after %d guests, want %d (every id but Dom0's)", builds, 1<<16-1)
	}
	if h.Domain(Dom0) != d0 {
		t.Fatal("Dom0's id resolves to another domain")
	}
	if err := h.Hypercall(last, "x", 0); !errors.Is(err, ErrDomainDead) {
		t.Fatalf("destroyed id %d: err = %v, want ErrDomainDead", last, err)
	}
	audit(t, h)
}

func TestStalePortCannotAliasReusedChannelSlot(t *testing.T) {
	// A destroyed domain's channel slot is reclaimed, but the surviving
	// peer may still hold the old port number. The reused slot's ports
	// carry a new generation, so signalling the stale port must error —
	// never deliver an upcall to the slot's next occupant.
	r := newVrig(t, hw.X86())
	a, err := r.h.CreateDomain("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	pStale, _, err := r.h.BindChannel(r.dom0.ID, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.h.DestroyDomain(a.ID); err != nil {
		t.Fatal(err)
	}
	b, err := r.h.CreateDomain("b", 8)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	b.SetHooks(GuestHooks{OnEvent: func(Port) { hits++ }})
	pNew, _, err := r.h.BindChannel(r.dom0.ID, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pNew == pStale {
		t.Fatal("reused slot handed out the dead channel's port number")
	}
	if err := r.h.NotifyChannel(r.dom0.ID, pStale); err == nil {
		t.Fatal("stale port accepted")
	}
	if hits != 0 {
		t.Fatal("stale port delivered an upcall to the slot's new occupant")
	}
	if err := r.h.NotifyChannel(r.dom0.ID, pNew); err != nil || hits != 1 {
		t.Fatalf("fresh channel broken: err=%v hits=%d", err, hits)
	}
}

func TestBalloonChurnKeepsHolesBounded(t *testing.T) {
	// BalloonIn must fill the P2M holes BalloonOut punched before it
	// appends; an out/in churn loop otherwise grows the P2M without bound.
	r := newVrig(t, hw.X86())
	d := r.domU
	size := len(d.frames)
	countHoles := func() int {
		n := 0
		for _, f := range d.frames {
			if f == hw.NoFrame {
				n++
			}
		}
		return n
	}
	for i := 0; i < 20; i++ {
		out, err := r.h.BalloonOut(d.ID, 8)
		if err != nil || out != 8 {
			t.Fatalf("cycle %d: ballooned out %d, %v", i, out, err)
		}
		audit(t, r.h)
		if n := countHoles(); n != 8 {
			t.Fatalf("cycle %d: %d P2M holes after ballooning out 8", i, n)
		}
		in, err := r.h.BalloonIn(d.ID, 8)
		if err != nil || in != 8 {
			t.Fatalf("cycle %d: ballooned in %d, %v", i, in, err)
		}
		audit(t, r.h)
		if n := countHoles(); n != 0 || len(d.frames) != size {
			t.Fatalf("cycle %d: %d P2M holes in %d slots after balanced churn, want 0 in %d", i, n, len(d.frames), size)
		}
	}
	// A flip-punched hole is filled the same way once ballooned full.
	f := d.FrameAt(3)
	ref, err := r.h.GrantAccess(d.ID, f, r.dom0.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.GrantTransfer(r.dom0.ID, d.ID, ref); err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if n := countHoles(); n != 1 {
		t.Fatalf("flip should punch one hole, have %d", n)
	}
	if _, err := r.h.BalloonIn(d.ID, 1); err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if n := countHoles(); n != 0 || len(d.frames) != size {
		t.Fatalf("%d P2M holes in %d slots after the fill, want 0 in %d", n, len(d.frames), size)
	}
}

// flip moves frame f from domain from to domain to through a grant and a
// page flip.
func flip(t *testing.T, h *Hypervisor, from, to DomID, f hw.FrameID) {
	t.Helper()
	ref, err := h.GrantAccess(from, f, to, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.GrantTransfer(to, from, ref); err != nil {
		t.Fatal(err)
	}
}

// TestFlipFillsHighestHole: a hole is a NoFrame slot of the P2M, and a
// page flipped in takes the highest one, then lands past the end once
// none is left.
func TestFlipFillsHighestHole(t *testing.T) {
	r := newVrig(t, hw.X86())
	d := r.domU
	size := len(d.Frames())
	for _, gpn := range []int{5, 2} {
		flip(t, r.h, d.ID, r.dom0.ID, d.FrameAt(gpn))
	}
	audit(t, r.h)
	for _, want := range []int{5, 2, size} {
		f, err := r.m.Mem.Alloc(r.dom0.Comp()) // a Dom0 buffer outside its P2M
		if err != nil {
			t.Fatal(err)
		}
		flip(t, r.h, r.dom0.ID, d.ID, f)
		if got := d.gpnOf(f); got != want {
			t.Fatalf("flipped-in frame %d landed at gpn %d, want %d", f, got, want)
		}
		audit(t, r.h)
	}
	if len(d.Frames()) != size+1 || d.OwnedPages() != size+1 {
		t.Fatalf("P2M of %d slots holding %d frames, want %d full", len(d.Frames()), d.OwnedPages(), size+1)
	}
}

// TestNotifyChannelRejectsMalformedPorts: a port names its channel's slot
// and generation, so a port that names no slot, a generation the slot
// never reached, or the other end of a live channel is refused with
// ErrBadPort and delivers nothing, and the live channel still works.
func TestNotifyChannelRejectsMalformedPorts(t *testing.T) {
	r := newVrig(t, hw.X86())
	hits := 0
	r.domU.SetHooks(GuestHooks{OnEvent: func(Port) { hits++ }})
	p0, pU, err := r.h.BindChannel(r.dom0.ID, r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		from DomID
		port Port
	}{
		{"port 0", r.dom0.ID, 0},
		{"negative port", r.dom0.ID, -1},
		{"the stride itself", r.dom0.ID, chanPortStride},
		{"a generation the slot never reached", r.dom0.ID, p0 + chanPortStride},
		{"a slot past the table", r.dom0.ID, p0 + 2*Port(len(r.h.ports))},
		{"the peer's port from the wrong domain", r.dom0.ID, pU},
		{"own port from the wrong domain", r.domU.ID, p0},
	} {
		if err := r.h.NotifyChannel(tc.from, tc.port); !errors.Is(err, ErrBadPort) {
			t.Errorf("%s: NotifyChannel(%d, %d) = %v, want ErrBadPort", tc.name, tc.from, tc.port, err)
		}
	}
	if hits != 0 {
		t.Fatalf("malformed ports delivered %d upcalls", hits)
	}
	if err := r.h.NotifyChannel(r.dom0.ID, p0); err != nil || hits != 1 {
		t.Fatalf("live channel: err = %v, %d upcalls, want one", err, hits)
	}
	if n := r.m.Rec.Counts(trace.KEvtchnSend); n != 1 {
		t.Fatalf("recorder counts %d event sends, want 1", n)
	}
}

func TestWorldSwitchChargedOnDomainChange(t *testing.T) {
	r := newVrig(t, hw.X86())
	ws0 := r.m.Rec.Counts(trace.KWorldSwitch)
	r.h.Hypercall(r.dom0.ID, "a", 0)
	r.h.Hypercall(r.domU.ID, "b", 0)
	r.h.Hypercall(r.domU.ID, "c", 0) // same domain: no switch
	ws1 := r.m.Rec.Counts(trace.KWorldSwitch)
	if ws1-ws0 != 2 {
		t.Fatalf("world switches = %d, want 2", ws1-ws0)
	}
}

func TestTenPrimitivesAllObservable(t *testing.T) {
	// Exercise each of the paper's ten primitives once and verify each
	// leaves its distinct trace — the raw material of the E5 census.
	r := newVrig(t, hw.X86())
	r.domU.SetHooks(GuestHooks{
		OnSyscall: func(no uint32, args []uint64) []uint64 { return nil },
		OnEvent:   func(p Port) {},
		OnVIRQ:    func(v int) {},
	})
	r.dom0.SetHooks(GuestHooks{OnVIRQ: func(v int) {}})

	r.h.GuestSyscall(r.domU.ID, 1, nil)                          // 1+2 (u2k, k2u) via 7 (bounce)
	p0, _, _ := r.h.BindChannel(r.dom0.ID, r.domU.ID)            //
	r.h.NotifyChannel(r.dom0.ID, p0)                             // 3 (+8 virq upcall)
	r.h.Hypercall(r.domU.ID, "balloon", 50)                      // 4
	r.h.MMUUpdate(r.domU.ID, 0x400, 1, hw.PermRW, true)          // 5
	f := r.dom0.FrameAt(4)                                       //
	ref, _ := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, false)    //
	r.h.GrantTransfer(r.domU.ID, r.dom0.ID, ref)                 // 6
	r.h.RouteIRQ(2, r.dom0.ID)                                   // 9 setup
	r.m.IRQ.Raise(2)                                             //
	r.m.IRQ.DispatchPending(r.m.Rec.Intern(HypervisorComponent)) // 9
	r.h.VirtDeviceOp(r.domU.ID, 10)                              // 10

	want := []trace.Kind{
		trace.KGuestUserToKernel, trace.KGuestKernelToUser, trace.KEvtchnSend,
		trace.KHypercall, trace.KShadowPTUpdate, trace.KPageFlip,
		trace.KExceptionBounce, trace.KVirtIRQ, trace.KHardIRQInject, trace.KVirtDeviceOp,
	}
	for _, k := range want {
		if r.m.Rec.Counts(k) == 0 {
			t.Errorf("primitive %v never observed", k)
		}
	}
	if got := len(r.m.Rec.DistinctPrimitives(trace.Snapshot{}, "vmm")); got != 10 {
		t.Fatalf("census sees %d distinct VMM primitives, want 10", got)
	}
}

// TestGrantSlotReuseKeepsStaleRefsDead: a revoked, unmapped grant frees its
// slot and the next grant takes it under a new ref. The old ref stays dead
// for every operation and never reaches the new grant: map, copy and
// transfer refuse it as revoked, and a revoke or unmap through it leaves
// the new grant and its mapping count alone. A grant revoked while mapped
// keeps its slot until the last unmap.
func TestGrantSlotReuseKeepsStaleRefsDead(t *testing.T) {
	r := newVrig(t, hw.X86())
	h, d0, dU := r.h, r.dom0.ID, r.domU.ID
	stale, err := h.GrantAccess(d0, r.dom0.FrameAt(0), dU, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.GrantRevoke(d0, stale); err != nil {
		t.Fatal(err)
	}
	ref, err := h.GrantAccess(d0, r.dom0.FrameAt(1), dU, false)
	if err != nil {
		t.Fatal(err)
	}
	if ref == stale || r.dom0.GrantSlots() != 1 {
		t.Fatalf("second grant got ref %d (first %d) in a %d-slot table; want a new ref in the freed slot", ref, stale, r.dom0.GrantSlots())
	}
	audit(t, h)
	if err := h.GrantMap(dU, d0, stale, 0x300); !errors.Is(err, ErrGrantRevoked) {
		t.Fatalf("map through a stale ref: %v, want ErrGrantRevoked", err)
	}
	if err := h.GrantCopy(dU, d0, stale, r.domU.FrameAt(0), 16); !errors.Is(err, ErrGrantRevoked) {
		t.Fatalf("copy through a stale ref: %v, want ErrGrantRevoked", err)
	}
	if _, err := h.GrantTransfer(dU, d0, stale); !errors.Is(err, ErrGrantRevoked) {
		t.Fatalf("transfer through a stale ref: %v, want ErrGrantRevoked", err)
	}
	for _, bad := range []GrantRef{-1, 1, 1<<20 + 5, ref + grantRefStride} {
		if err := h.GrantMap(dU, d0, bad, 0x300); !errors.Is(err, ErrBadGrant) {
			t.Fatalf("map through ref %d, never issued: %v, want ErrBadGrant", bad, err)
		}
	}
	if err := h.GrantMap(dU, d0, ref, 0x300); err != nil {
		t.Fatal(err)
	}
	if err := h.GrantRevoke(d0, stale); err != nil {
		t.Fatalf("revoke through a stale ref: %v", err)
	}
	if err := h.GrantUnmap(dU, d0, stale, 0x301); err != nil {
		t.Fatalf("unmap through a stale ref: %v", err)
	}
	if err := h.GrantCopy(dU, d0, ref, r.domU.FrameAt(0), 16); err != nil {
		t.Fatalf("the slot's grant stopped working after stale-ref calls: %v", err)
	}
	audit(t, h)
	// Revoked while mapped: the slot stays taken until the unmap.
	if err := h.GrantRevoke(d0, ref); err != nil {
		t.Fatal(err)
	}
	if next, _ := h.GrantAccess(d0, r.dom0.FrameAt(2), dU, false); r.dom0.GrantSlots() != 2 {
		t.Fatalf("a grant revoked while mapped gave up its slot to ref %d", next)
	}
	audit(t, h)
	if err := h.GrantUnmap(dU, d0, ref, 0x300); err != nil {
		t.Fatal(err)
	}
	audit(t, h)
	if _, err := h.GrantAccess(d0, r.dom0.FrameAt(3), dU, false); err != nil || r.dom0.GrantSlots() != 2 {
		t.Fatalf("the last unmap of a revoked grant did not free its slot: %d slots, %v", r.dom0.GrantSlots(), err)
	}
}
