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
func BenchmarkMigrateLive64(b *testing.B) { benchMigrateLive64(b, 2, []byte("page"), 8) }

// BenchmarkMigrateLive64OneBytePages is the same migration of a guest that
// stores one byte per page, as E13's churn does: every page written and the
// round's dirtied pages rewritten at the same byte.
func BenchmarkMigrateLive64OneBytePages(b *testing.B) { benchMigrateLive64(b, 1, []byte{1}, 0) }

// benchMigrateLive64 writes fill into every stride-th page of a 64-page
// guest, then migrates it back and forth, each pre-copy round dirtying
// pages 0–3 with one byte at offset dirtyOff. Domain IDs are 16 bits and
// never reused, and a hypervisor that has handed out all of them refuses
// the next build with ErrDomIDsExhausted, so the two hosts reboot every
// 1<<14 migrations, with the reboot amortized into the ops.
func benchMigrateLive64(b *testing.B, stride int, fill []byte, dirtyOff int) {
	var (
		hs  [2]*Hypervisor
		d   *Domain
		err error
	)
	boot := func() {
		for i := range hs {
			if hs[i], _, err = New(hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512}), 64); err != nil {
				b.Fatal(err)
			}
		}
		if d, err = hs[0].CreateDomain("guest", 64); err != nil {
			b.Fatal(err)
		}
		for gpn := 0; gpn < 64; gpn += stride {
			if err := hs[0].GuestMemWrite(d.ID, gpn, 0, fill); err != nil {
				b.Fatal(err)
			}
		}
	}
	var src *Hypervisor
	opts := LiveOpts{MaxRounds: 3, GuestWork: func(round int) {
		for gpn := 0; gpn < 4; gpn++ {
			_ = src.GuestMemWrite(d.ID, gpn, dirtyOff, []byte{byte(round)})
		}
	}}
	boot()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if i == 1<<14 {
			boot()
			i = 0
		}
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
	r.m.Mem.Write(src, 0, make([]byte, 1500)) // a 1500-byte prefix: the copy moves real bytes
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
