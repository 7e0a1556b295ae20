package vmm

import (
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

func TestShadowMMUEmulatesValidWrite(t *testing.T) {
	r := newVrig(t, hw.X86())
	s, err := r.h.EnableShadowMMU(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.GuestPTWrite(0x800, 5, hw.PermRW, true); err != nil {
		t.Fatal(err)
	}
	// The shadow (real) PT carries the validated mapping.
	e, ok := r.domU.PT.Lookup(0x800)
	if !ok || e.Frame != r.domU.FrameAt(5) || e.Perms != hw.PermRW {
		t.Fatal("shadow not updated")
	}
	if got := r.m.Rec.Counts(trace.KShadowPTUpdate); got != 1 {
		t.Fatalf("shadow updates = %d, want 1", got)
	}
	// Each update is a trap-and-emulate: an exception bounce, not a
	// hypercall.
	if r.m.Rec.Counts(trace.KExceptionBounce) == 0 {
		t.Fatal("no trap recorded for PT write")
	}
}

func TestShadowMMURejectsForeignFrame(t *testing.T) {
	r := newVrig(t, hw.X86())
	s, _ := r.h.EnableShadowMMU(r.domU.ID)
	// The guest's write succeeds and the monitor emulates it…
	if err := s.GuestPTWrite(0x801, 9999, hw.PermRW, true); err != nil {
		t.Fatal(err)
	}
	if got := r.m.Rec.Counts(trace.KShadowPTUpdate); got != 1 {
		t.Fatalf("shadow updates = %d, want 1", got)
	}
	// …but the shadow refuses to map it.
	if _, ok := r.domU.PT.Lookup(0x801); ok {
		t.Fatal("shadow mapped a frame the domain does not own")
	}
}

func TestShadowMMUOverwriteInvalidates(t *testing.T) {
	r := newVrig(t, hw.X86())
	s, _ := r.h.EnableShadowMMU(r.domU.ID)
	// Overwrite with an invalid entry, a foreign page or a permission bit
	// no entry holds: the shadow must drop the mapping.
	for _, bad := range []struct {
		gpn   int
		perms hw.Perm
	}{{9999, hw.PermRW}, {3, hw.PermRWX + 1}} {
		s.GuestPTWrite(0x802, 3, hw.PermRW, true)
		s.GuestPTWrite(0x802, bad.gpn, bad.perms, true)
		if _, ok := r.domU.PT.Lookup(0x802); ok {
			t.Fatalf("stale shadow entry after invalid overwrite %+v", bad)
		}
	}
}

func TestShadowVsParavirtCost(t *testing.T) {
	// The reason paravirtualisation exists: a shadow (trap-and-emulate)
	// PT update must cost visibly more than the explicit hypercall.
	r := newVrig(t, hw.X86())
	s, _ := r.h.EnableShadowMMU(r.domU.ID)

	t0 := r.m.Now()
	for i := 0; i < 50; i++ {
		if err := s.GuestPTWrite(hw.VPN(0x900+i), i%32, hw.PermRW, true); err != nil {
			t.Fatal(err)
		}
	}
	shadowCost := uint64(r.m.Now()-t0) / 50

	r2 := newVrig(t, hw.X86())
	t1 := r2.m.Now()
	for i := 0; i < 50; i++ {
		if err := r2.h.MMUUpdate(r2.domU.ID, hw.VPN(0x900+i), i%32, hw.PermRW, true); err != nil {
			t.Fatal(err)
		}
	}
	paraCost := uint64(r2.m.Now()-t1) / 50

	if shadowCost <= paraCost {
		t.Fatalf("shadow (%d) should cost more than paravirt (%d) per update", shadowCost, paraCost)
	}
}

func TestShadowMMUOnDeadDomain(t *testing.T) {
	r := newVrig(t, hw.X86())
	s, _ := r.h.EnableShadowMMU(r.domU.ID)
	r.h.DestroyDomain(r.domU.ID)
	if err := s.GuestPTWrite(0x800, 1, hw.PermR, true); err != ErrDomainDead {
		t.Fatalf("err = %v, want ErrDomainDead", err)
	}
	if _, err := r.h.EnableShadowMMU(r.domU.ID); err != ErrDomainDead {
		t.Fatalf("enable err = %v, want ErrDomainDead", err)
	}
}
