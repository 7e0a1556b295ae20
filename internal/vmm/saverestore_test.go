package vmm

import (
	"errors"
	"testing"

	"vmmk/internal/hw"
)

func TestPauseUnpause(t *testing.T) {
	r := newVrig(t, hw.X86())
	if err := r.h.Pause(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	if !r.h.Paused(r.domU.ID) {
		t.Fatal("not paused")
	}
	// A paused domain never gets scheduled.
	for i := 0; i < 5; i++ {
		if d := r.h.ScheduleNext(); d != nil && d.ID == r.domU.ID {
			t.Fatal("paused domain scheduled")
		}
	}
	if err := r.h.Unpause(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	seen := false
	for i := 0; i < 5; i++ {
		if d := r.h.ScheduleNext(); d != nil && d.ID == r.domU.ID {
			seen = true
		}
	}
	if !seen {
		t.Fatal("unpaused domain never scheduled")
	}
}

func TestSaveRequiresPause(t *testing.T) {
	r := newVrig(t, hw.X86())
	if _, err := r.h.SaveDomain(r.domU.ID); !errors.Is(err, ErrDomainLive) {
		t.Fatalf("err = %v, want ErrDomainLive", err)
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	r := newVrig(t, hw.X86())
	// Distinctive memory and a mapping.
	copy(r.m.Mem.Data(r.domU.FrameAt(3)), []byte("page-three-data"))
	if err := r.h.MMUUpdate(r.domU.ID, 0x500, 3, hw.PermRW, true); err != nil {
		t.Fatal(err)
	}
	if err := r.h.Pause(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	img, err := r.h.SaveDomain(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.h.DestroyDomain(r.domU.ID); err != nil {
		t.Fatal(err)
	}

	d2, err := r.h.RestoreDomain(img)
	if err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if !r.h.Paused(d2.ID) {
		t.Fatal("restored domain must start paused")
	}
	if string(r.m.Mem.Data(d2.FrameAt(3))[:15]) != "page-three-data" {
		t.Fatal("memory contents lost in save/restore")
	}
	e, ok := d2.PT.Lookup(0x500)
	if !ok || e.Frame != d2.FrameAt(3) || e.Perms != hw.PermRW {
		t.Fatal("page table not rebuilt")
	}
	if err := r.h.Unpause(d2.ID); err != nil {
		t.Fatal(err)
	}
	// The restored domain is fully operational.
	if err := r.h.Hypercall(d2.ID, "probe", 10); err != nil {
		t.Fatal(err)
	}
}

func TestSavePreservesP2MHoles(t *testing.T) {
	r := newVrig(t, hw.X86())
	// Flip a frame away to punch a hole, then save/restore.
	f := r.dom0.FrameAt(0)
	ref, _ := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, false)
	if _, err := r.h.GrantTransfer(r.domU.ID, r.dom0.ID, ref); err != nil {
		t.Fatal(err)
	}
	r.h.Pause(r.dom0.ID)
	img, err := r.h.SaveDomain(r.dom0.ID)
	if err != nil {
		t.Fatal(err)
	}
	if img.Memory[0] != nil {
		t.Fatal("hole not preserved in image")
	}
	r.h.DestroyDomain(r.dom0.ID)
	d2, err := r.h.RestoreDomain(img)
	if err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if d2.FrameAt(0) != hw.NoFrame {
		t.Fatal("hole not preserved after restore")
	}
}

func TestMigrateBetweenHypervisors(t *testing.T) {
	// Two machines, two hypervisors; move a guest between them.
	src := newVrig(t, hw.X86())
	m2 := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512})
	dstH, _, err := New(m2, 64)
	if err != nil {
		t.Fatal(err)
	}
	copy(src.m.Mem.Data(src.domU.FrameAt(7)), []byte("travels-with-me"))
	if err := src.h.MMUUpdate(src.domU.ID, 0x700, 7, hw.PermR, true); err != nil {
		t.Fatal(err)
	}

	d2, err := Migrate(src.h, src.domU.ID, dstH)
	if err != nil {
		t.Fatal(err)
	}
	audit(t, src.h, dstH)
	// Gone at the source, alive (paused) at the destination.
	if src.h.Alive(src.domU.ID) {
		t.Fatal("domain still alive at source")
	}
	if string(m2.Mem.Data(d2.FrameAt(7))[:15]) != "travels-with-me" {
		t.Fatal("memory did not travel")
	}
	if e, ok := d2.PT.Lookup(0x700); !ok || e.Perms != hw.PermR {
		t.Fatal("mappings did not travel")
	}
	if err := dstH.Unpause(d2.ID); err != nil {
		t.Fatal(err)
	}
	if err := dstH.Hypercall(d2.ID, "probe", 10); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreEmptyImage(t *testing.T) {
	r := newVrig(t, hw.X86())
	if _, err := r.h.RestoreDomain(nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, err := r.h.RestoreDomain(&DomainImage{Name: "x"}); err == nil {
		t.Fatal("memoryless image accepted")
	}
}

func TestSaveDropsForeignGrantMappings(t *testing.T) {
	r := newVrig(t, hw.X86())
	// domU maps a granted dom0 page; the mapping must not survive a
	// save/restore (the grant is connection state).
	f := r.dom0.FrameAt(1)
	ref, _ := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, true)
	if err := r.h.GrantMap(r.domU.ID, r.dom0.ID, ref, 0x900); err != nil {
		t.Fatal(err)
	}
	r.h.Pause(r.domU.ID)
	img, err := r.h.SaveDomain(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range img.PT {
		if e.VPN == 0x900 {
			t.Fatal("foreign grant mapping leaked into the image")
		}
	}
}
