package vmm

import (
	"testing"

	"vmmk/internal/hw"
)

// BenchmarkDirtyLogRearm is one pre-copy round boundary of a 64-page guest
// that dirties 8 pages per round: the faults, then the Rearm that collects
// them and write-protects the domain again.
func BenchmarkDirtyLogRearm(b *testing.B) {
	r := newVrig(b, hw.X86())
	dl, err := r.h.EnableDirtyLog(r.domU.ID)
	if err != nil {
		b.Fatal(err)
	}
	buf := []byte{1}
	b.ReportAllocs()
	for b.Loop() {
		for gpn := 0; gpn < 64; gpn += 8 {
			if err := r.h.GuestMemWrite(r.domU.ID, gpn, 0, buf); err != nil {
				b.Fatal(err)
			}
		}
		dl.Rearm()
	}
}

// BenchmarkMigrateLive64 live-migrates a 64-page guest, half its pages
// written and 4 dirtied per pre-copy round, back and forth between two
// hosts: one op is one whole migration.
func BenchmarkMigrateLive64(b *testing.B) {
	var hs [2]*Hypervisor
	for i := range hs {
		h, _, err := New(hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512}), 64)
		if err != nil {
			b.Fatal(err)
		}
		hs[i] = h
	}
	d, err := hs[0].CreateDomain("guest", 64)
	if err != nil {
		b.Fatal(err)
	}
	for gpn := 0; gpn < 64; gpn += 2 {
		if err := hs[0].GuestMemWrite(d.ID, gpn, 0, []byte("page")); err != nil {
			b.Fatal(err)
		}
	}
	var src *Hypervisor
	opts := LiveOpts{MaxRounds: 3, GuestWork: func(round int) {
		for gpn := 0; gpn < 4; gpn++ {
			_ = src.GuestMemWrite(d.ID, gpn, 8, []byte{byte(round)})
		}
	}}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		src = hs[i%2]
		if d, _, err = MigrateLive(src, d.ID, hs[(i+1)%2], opts); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkBalloonOutIn is one squeeze-and-reflate cycle of a 64-page
// guest: 8 pages ballooned out (P2M holes, one batch unmap, frames freed)
// and ballooned back in.
func BenchmarkBalloonOutIn(b *testing.B) {
	r := newVrig(b, hw.X86())
	b.ReportAllocs()
	for b.Loop() {
		if n, err := r.h.BalloonOut(r.domU.ID, 8); err != nil || n != 8 {
			b.Fatalf("BalloonOut = %d, %v", n, err)
		}
		if n, err := r.h.BalloonIn(r.domU.ID, 8); err != nil || n != 8 {
			b.Fatalf("BalloonIn = %d, %v", n, err)
		}
	}
}

// BenchmarkGrantCopy is one hypervisor-mediated copy of a 1500-byte packet
// from a page dom0 granted read-only into a guest buffer frame: the
// copy-mode alternative to the page flip.
func BenchmarkGrantCopy(b *testing.B) {
	r := newVrig(b, hw.X86())
	src, dst := r.dom0.FrameAt(0), r.domU.FrameAt(0)
	r.m.Mem.Data(src)[0] = 1 // a written source: the copy moves real bytes
	ref, err := r.h.GrantAccess(r.dom0.ID, src, r.domU.ID, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := r.h.GrantCopy(r.domU.ID, r.dom0.ID, ref, dst, 1500); err != nil {
			b.Fatal(err)
		}
	}
}
