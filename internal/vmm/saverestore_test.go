package vmm

import (
	"bytes"
	"errors"
	"strings"
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
	if err := r.h.Unpause(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	if r.h.Paused(r.domU.ID) {
		t.Fatal("still paused after Unpause")
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
	r.m.Mem.Write(r.domU.FrameAt(3), 0, []byte("page-three-data"))
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
	if string(readFrame(r.m.Mem, d2.FrameAt(3), 15)) != "page-three-data" {
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
	src.m.Mem.Write(src.domU.FrameAt(7), 0, []byte("travels-with-me"))
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
	if string(readFrame(m2.Mem, d2.FrameAt(7), 15)) != "travels-with-me" {
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

// TestMovesBetweenPageSizesAreRefused moves a guest of a 64 KiB-page ppc64
// hypervisor toward a 4 KiB-page x86 one by every route. Guest page
// numbers name pages of one size, so each route must refuse with
// ErrPageSize before it starts: the source stays live, unpaused and
// unlogged, and the destination builds no shell. The image itself still
// restores, byte 5000 included, on a machine of its own page size.
func TestMovesBetweenPageSizesAreRefused(t *testing.T) {
	src, dst := newVrig(t, hw.PPC64()), newVrig(t, hw.X86())
	// The destination's own domU1 goes, so no route is refused for the
	// name.
	if err := dst.h.DestroyDomain(dst.domU.ID); err != nil {
		t.Fatal(err)
	}
	const gpn, off, mark = 3, 5000, "past 4 KiB"
	if err := src.h.GuestMemWrite(src.domU.ID, gpn, off, []byte(mark)); err != nil {
		t.Fatal(err)
	}
	doms, free := len(dst.h.Domains()), dst.m.Mem.FreeFrames()
	refused := func(route string, err error) {
		t.Helper()
		if !errors.Is(err, ErrPageSize) {
			t.Fatalf("%s: err = %v, want ErrPageSize", route, err)
		}
		if !src.h.Alive(src.domU.ID) || src.h.Paused(src.domU.ID) {
			t.Fatalf("%s: source alive=%v paused=%v, want live and running", route, src.h.Alive(src.domU.ID), src.h.Paused(src.domU.ID))
		}
		if src.domU.dirtyLog != nil {
			t.Fatalf("%s left the source's dirty log enabled", route)
		}
		if len(dst.h.Domains()) != doms || dst.m.Mem.FreeFrames() != free {
			t.Fatalf("%s built a destination shell", route)
		}
		audit(t, src.h, dst.h)
	}

	_, err := Migrate(src.h, src.domU.ID, dst.h)
	refused("Migrate", err)
	_, _, err = MigrateLive(src.h, src.domU.ID, dst.h, LiveOpts{})
	refused("MigrateLive", err)

	if err := src.h.Pause(src.domU.ID); err != nil {
		t.Fatal(err)
	}
	img, err := src.h.SaveDomain(src.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.h.Unpause(src.domU.ID); err != nil {
		t.Fatal(err)
	}
	if img.PageSize != 1<<16 {
		t.Fatalf("image page size = %d, want 65536", img.PageSize)
	}
	_, err = dst.h.RestoreDomain(img)
	refused("RestoreDomain", err)
	// Pages that would all fit 4 KiB do not make the image portable: its
	// guest page numbers still name 64 KiB pages.
	short := *img
	short.Memory = make([][]byte, len(img.Memory))
	for gpn, page := range img.Memory {
		if page != nil {
			short.Memory[gpn] = page[:0]
		}
	}
	_, err = dst.h.RestoreDomain(&short)
	refused("RestoreDomain of an image with short pages", err)

	same := newVrig(t, hw.PPC64())
	if err := same.h.DestroyDomain(same.domU.ID); err != nil {
		t.Fatal(err)
	}
	d, err := same.h.RestoreDomain(img)
	if err != nil {
		t.Fatal(err)
	}
	audit(t, same.h)
	got := make([]byte, len(mark))
	same.m.Mem.Read(d.FrameAt(gpn), off, got)
	if string(got) != mark {
		t.Fatalf("restored page reads %q at byte %d, want %q", got, off, mark)
	}
}

// TestImageHoldsPrefixes pins DomainImage.Memory's encoding: a hole is nil,
// a page that reads zero is empty but not nil, and a written page holds
// its bytes up to the last one written. Restore loads each prefix with a
// zero tail over whatever the new frames held.
func TestImageHoldsPrefixes(t *testing.T) {
	r := newVrig(t, hw.X86())
	if err := r.h.GuestMemWrite(r.domU.ID, 5, 10, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.BalloonOut(r.domU.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.h.Pause(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	img, err := r.h.SaveDomain(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	holes := 0
	for gpn, page := range img.Memory {
		switch {
		case page == nil:
			holes++
		case gpn == 5:
			if want := "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00abc"; string(page) != want {
				t.Fatalf("page 5 saved as %q, want %q", page, want)
			}
		case len(page) != 0:
			t.Fatalf("untouched page %d saved as %d bytes", gpn, len(page))
		}
	}
	if holes != 1 {
		t.Fatalf("image has %d holes, want the 1 ballooned out", holes)
	}
	if err := r.h.DestroyDomain(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	// Dirty every free frame, so the restored domain's frames hold old
	// bytes that the loaded prefixes must hide.
	var scratch []hw.FrameID
	for r.m.Mem.FreeFrames() > 0 {
		f, _ := r.m.Mem.Alloc(r.dom0.Comp())
		r.m.Mem.Write(f, 0, []byte("stale stale stale"))
		scratch = append(scratch, f)
	}
	for _, f := range scratch {
		r.m.Mem.Free(f)
	}
	d, err := r.h.RestoreDomain(img)
	if err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	for gpn, page := range img.Memory {
		if page == nil {
			continue
		}
		got := make([]byte, r.m.Mem.PageSize())
		r.m.Mem.Read(d.FrameAt(gpn), 0, got)
		if want := append(append([]byte(nil), page...), make([]byte, len(got)-len(page))...); !bytes.Equal(got, want) {
			t.Fatalf("restored page %d reads %q...", gpn, got[:16])
		}
	}
	// An entry longer than the image's page size is malformed.
	bad := *img
	bad.Name = "bad"
	bad.Memory = append([][]byte(nil), img.Memory...)
	bad.Memory[5] = make([]byte, img.PageSize+1)
	if _, err := r.h.RestoreDomain(&bad); !errors.Is(err, ErrPageSize) {
		t.Fatalf("image with a %d-byte page restored: err = %v, want ErrPageSize", len(bad.Memory[5]), err)
	}
	audit(t, r.h)
}

func TestRestoreEmptyImage(t *testing.T) {
	r := newVrig(t, hw.X86())
	if _, err := r.h.RestoreDomain(nil); err == nil {
		t.Fatal("nil image accepted")
	}
	_, err := r.h.RestoreDomain(&DomainImage{Name: "x", PageSize: r.m.Mem.PageSize()})
	if err == nil || errors.Is(err, ErrPageSize) || !strings.Contains(err.Error(), "no memory") {
		t.Fatalf("memoryless image: err = %v, want a no-memory refusal", err)
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

// TestMovedGuestRefillsP2MHoles moves a guest with a hole at gpn 2 by each
// route that builds a shell, then flips a Dom0 page into it on its new
// hypervisor: the page must refill the hole, as it would have on the
// source, not land past the end of the P2M.
func TestMovedGuestRefillsP2MHoles(t *testing.T) {
	cases := []struct {
		name string
		// move takes the guest off r and returns the hypervisor holding
		// it, that hypervisor's Dom0, and the moved guest.
		move func(t *testing.T, r *liveRig) (*Hypervisor, *Domain, *Domain)
	}{
		{"Migrate", func(t *testing.T, r *liveRig) (*Hypervisor, *Domain, *Domain) {
			d2, err := Migrate(r.h, r.domU.ID, r.dstH)
			if err != nil {
				t.Fatal(err)
			}
			return r.dstH, r.dstDom0, d2
		}},
		{"MigrateLive", func(t *testing.T, r *liveRig) (*Hypervisor, *Domain, *Domain) {
			d2, _, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{})
			if err != nil {
				t.Fatal(err)
			}
			return r.dstH, r.dstDom0, d2
		}},
		{"RestoreDomain", func(t *testing.T, r *liveRig) (*Hypervisor, *Domain, *Domain) {
			if err := r.h.Pause(r.domU.ID); err != nil {
				t.Fatal(err)
			}
			img, err := r.h.SaveDomain(r.domU.ID)
			if err != nil {
				t.Fatal(err)
			}
			r.h.DestroyDomain(r.domU.ID)
			d2, err := r.h.RestoreDomain(img)
			if err != nil {
				t.Fatal(err)
			}
			return r.h, r.dom0, d2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newLiveRig(t)
			slots := len(r.domU.Frames())
			if err := r.domU.ReleaseFrame(r.domU.FrameAt(2)); err != nil {
				t.Fatal(err)
			}
			h, dom0, d2 := tc.move(t, r)
			audit(t, r.h, r.dstH)
			f := dom0.FrameAt(0)
			ref, err := h.GrantAccess(dom0.ID, f, d2.ID, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.GrantTransfer(d2.ID, dom0.ID, ref); err != nil {
				t.Fatal(err)
			}
			audit(t, r.h, r.dstH)
			if n := len(d2.Frames()); n != slots {
				t.Errorf("P2M grew from %d to %d slots", slots, n)
			}
			if d2.FrameAt(2) != f {
				t.Errorf("gpn 2 holds frame %d, want the flipped-in frame %d", d2.FrameAt(2), f)
			}
		})
	}
}
