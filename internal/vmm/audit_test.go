package vmm

import (
	"errors"
	"testing"

	"vmmk/internal/hw"
)

// TestDomainNamesAreUnique pins the name rule every domain-building path
// enforces: the name is the frame owner's identity, so a second live
// domain of the same name would share the first one's frames. Without the
// rule, a.ReleaseFrame(b.FrameAt(0)) succeeds and leaves b's P2M naming a
// free frame.
func TestDomainNamesAreUnique(t *testing.T) {
	r := newVrig(t, hw.X86())
	a, err := r.h.CreateDomain("g", 8)
	if err != nil {
		t.Fatal(err)
	}
	free := r.m.Mem.FreeFrames()
	if _, err := r.h.CreateDomain("g", 8); !errors.Is(err, ErrDomainExists) {
		t.Fatalf("duplicate create err = %v, want ErrDomainExists", err)
	}
	if got := r.m.Mem.FreeFrames(); got != free {
		t.Fatalf("rejected create took %d frames", free-got)
	}
	if err := a.ReleaseFrame(r.domU.FrameAt(0)); !errors.Is(err, ErrFrameNotOwned) {
		t.Fatalf("releasing another domain's frame: err = %v, want ErrFrameNotOwned", err)
	}
	audit(t, r.h)

	// Restore and both migrations build through the same check.
	if err := r.h.Pause(a.ID); err != nil {
		t.Fatal(err)
	}
	img, err := r.h.SaveDomain(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.RestoreDomain(img); !errors.Is(err, ErrDomainExists) {
		t.Fatalf("restore over a live name: err = %v, want ErrDomainExists", err)
	}
	dst := newVrig(t, hw.X86()) // also runs a "domU1"
	if _, err := Migrate(r.h, r.domU.ID, dst.h); !errors.Is(err, ErrDomainExists) {
		t.Fatalf("Migrate onto a live name: err = %v, want ErrDomainExists", err)
	}
	if _, _, err := MigrateLive(r.h, r.domU.ID, dst.h, LiveOpts{}); !errors.Is(err, ErrDomainExists) {
		t.Fatalf("MigrateLive onto a live name: err = %v, want ErrDomainExists", err)
	}
	if !r.h.Alive(r.domU.ID) || r.h.Paused(r.domU.ID) || len(dst.h.Domains()) != 2 {
		t.Fatal("a rejected migration must leave the source running and the destination as it was")
	}
	audit(t, r.h, dst.h)

	// A destroyed domain's name is free again.
	if err := r.h.DestroyDomain(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.RestoreDomain(img); err != nil {
		t.Fatalf("restore after the original died: %v", err)
	}
	audit(t, r.h)
}

// TestMigrateOutOfMemoryResumesSource: a destination too small for the
// guest refuses the stop-and-copy migration, and the source keeps running.
func TestMigrateOutOfMemoryResumesSource(t *testing.T) {
	r := newVrig(t, hw.X86())
	dm := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 96})
	dst, _, err := New(dm, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(r.h, r.domU.ID, dst); !errors.Is(err, hw.ErrOutOfMemory) {
		t.Fatalf("Migrate onto a full machine: err = %v, want ErrOutOfMemory", err)
	}
	if !r.h.Alive(r.domU.ID) || r.h.Paused(r.domU.ID) {
		t.Fatal("a refused migration left the source paused or dead")
	}
	// A guest its caller paused stays paused.
	if err := r.h.Pause(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(r.h, r.domU.ID, dst); !errors.Is(err, hw.ErrOutOfMemory) {
		t.Fatalf("second Migrate: err = %v, want ErrOutOfMemory", err)
	}
	if !r.h.Paused(r.domU.ID) {
		t.Fatal("a refused migration resumed a guest its caller had paused")
	}
	audit(t, r.h, dst)
}

// TestMigrateWithinOneHypervisorRefused: both migrations build the copy
// under the guest's own name, so a migration onto the source's own
// hypervisor is refused with ErrDomainExists and leaves the guest where it
// was: running, with the same frames and memory.
func TestMigrateWithinOneHypervisorRefused(t *testing.T) {
	r := newVrig(t, hw.X86())
	f := r.domU.FrameAt(0)
	r.m.Mem.Write(f, 0, []byte("stays put"))
	free, domains := r.m.Mem.FreeFrames(), len(r.h.Domains())
	if _, err := Migrate(r.h, r.domU.ID, r.h); !errors.Is(err, ErrDomainExists) {
		t.Fatalf("Migrate onto its own hypervisor: err = %v, want ErrDomainExists", err)
	}
	if _, _, err := MigrateLive(r.h, r.domU.ID, r.h, LiveOpts{}); !errors.Is(err, ErrDomainExists) {
		t.Fatalf("MigrateLive onto its own hypervisor: err = %v, want ErrDomainExists", err)
	}
	if !r.h.Alive(r.domU.ID) || r.h.Paused(r.domU.ID) {
		t.Fatal("a refused migration left the source paused or dead")
	}
	if r.domU.FrameAt(0) != f || string(readFrame(r.m.Mem, f, 9)) != "stays put" {
		t.Fatal("a refused migration moved the guest's memory")
	}
	if r.m.Mem.FreeFrames() != free || len(r.h.Domains()) != domains {
		t.Fatalf("a refused migration left %d free frames and %d domains, want %d and %d",
			r.m.Mem.FreeFrames(), len(r.h.Domains()), free, domains)
	}
	audit(t, r.h)
}

// TestStaleDomainOwnsNothing: a destroyed domain's handle must not reach
// the frames of a new domain that reuses its name (and so its ledger
// owner). The LIFO free list hands the new domain the same frames at the
// same gpns, so an unguarded release would punch the new domain's P2M.
func TestStaleDomainOwnsNothing(t *testing.T) {
	r := newVrig(t, hw.X86())
	a, err := r.h.CreateDomain("g", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.h.DestroyDomain(a.ID); err != nil {
		t.Fatal(err)
	}
	b, err := r.h.CreateDomain("g", 8)
	if err != nil {
		t.Fatal(err)
	}
	f := b.FrameAt(0)
	if a.OwnsFrame(f) {
		t.Fatal("a destroyed domain owns its successor's frame")
	}
	if err := a.ReleaseFrame(f); !errors.Is(err, ErrDomainDead) {
		t.Fatalf("stale release err = %v, want ErrDomainDead", err)
	}
	if !b.OwnsFrame(f) || b.FrameAt(0) != f || b.OwnedPages() != 8 {
		t.Fatal("a stale release touched the live domain's memory")
	}
	audit(t, r.h)
}

// TestFailedBuildKeepsIDsAligned: a domain build that runs out of memory
// still consumes its id, and the next domain must be reachable by its own.
func TestFailedBuildKeepsIDsAligned(t *testing.T) {
	r := newVrig(t, hw.X86())
	if _, err := r.h.CreateDomain("huge", 10_000); !errors.Is(err, hw.ErrOutOfMemory) {
		t.Fatalf("oversized create err = %v, want ErrOutOfMemory", err)
	}
	free := r.m.Mem.FreeFrames()
	d, err := r.h.CreateDomain("next", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.h.Hypercall(d.ID, "probe", 10); err != nil {
		t.Fatalf("domain built after a failed build is unreachable: %v", err)
	}
	if err := r.h.DestroyDomain(d.ID); err != nil {
		t.Fatal(err)
	}
	if got := r.m.Mem.FreeFrames(); got != free {
		t.Fatalf("destroy returned %d of 8 frames", got-(free-8))
	}
	audit(t, r.h)
}

// TestAuditCatchesCorruption guards the auditor against vacuity: each
// kind of P2M bookkeeping damage must be reported.
func TestAuditCatchesCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(r *vrig){
		"frame owned elsewhere": func(r *vrig) { r.m.Mem.Transfer(r.domU.FrameAt(3), r.dom0.Comp()) },
		"P2M frame missing from the M2P": func(r *vrig) {
			r.m.Mem.SetM2P(r.domU.FrameAt(3), -1)
		},
		"M2P names the wrong gpn": func(r *vrig) {
			r.m.Mem.SetM2P(r.domU.FrameAt(3), 4)
		},
		"stale M2P entry": func(r *vrig) {
			// The slot empties properly; the frame table then names it
			// again for the frame the domain still owns.
			f := r.domU.FrameAt(3)
			r.domU.punch(3)
			r.m.Mem.SetM2P(f, 3)
		},
		"resident count drift": func(r *vrig) { r.domU.resident++ },
		"two live domains share a name": func(r *vrig) {
			r.domU.Name, r.domU.comp = r.dom0.Name, r.dom0.Comp()
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := newVrig(t, hw.X86())
			audit(t, r.h)
			corrupt(r)
			if err := r.h.Audit(); err == nil {
				t.Fatal("audit passed a corrupted monitor")
			}
		})
	}
}
