package vmm

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// --- dirty-page logging ----------------------------------------------------

func TestDirtyLogCatchesFirstWritePerRound(t *testing.T) {
	r := newVrig(t, hw.X86())
	dl, err := r.h.EnableDirtyLog(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.h.GuestMemWrite(r.domU.ID, 5, 0, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if got := dl.Dirty(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("dirty = %v, want [5]", got)
	}
	if got := r.m.Rec.Counts(trace.KDirtyLogFault); got != 1 {
		t.Fatalf("faults = %d, want 1", got)
	}
	// The second store to an unprotected page is full speed: no new fault.
	if err := r.h.GuestMemWrite(r.domU.ID, 5, 8, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if got := r.m.Rec.Counts(trace.KDirtyLogFault); got != 1 {
		t.Fatalf("faults after free write = %d, want 1", got)
	}
	// Re-arming hands back the round's dirty set and re-protects.
	if got := dl.Rearm(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("rearm returned %v, want [5]", got)
	}
	audit(t, r.h)
	if got := dl.Dirty(); len(got) != 0 {
		t.Fatalf("dirty after rearm = %v, want empty", got)
	}
	if err := r.h.GuestMemWrite(r.domU.ID, 5, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := r.m.Rec.Counts(trace.KDirtyLogFault); got != 2 {
		t.Fatalf("re-armed page did not fault: faults = %d", got)
	}
}

func TestDirtyLogWriteProtectsAndRestoresPerms(t *testing.T) {
	r := newVrig(t, hw.X86())
	// One mapping the guest holds writable, one deliberately read-only.
	if err := r.h.MMUUpdate(r.domU.ID, 0xA00, 3, hw.PermRW, true); err != nil {
		t.Fatal(err)
	}
	if err := r.h.MMUUpdate(r.domU.ID, 0xA01, 4, hw.PermR, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.EnableDirtyLog(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if e, _ := r.domU.PT.Lookup(0xA00); e.Perms&hw.PermW != 0 {
		t.Fatal("armed page still writable")
	}
	// The fault restores write permission on the faulting page only.
	if err := r.h.GuestMemWrite(r.domU.ID, 3, 0, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if e, _ := r.domU.PT.Lookup(0xA00); e.Perms&hw.PermW == 0 {
		t.Fatal("fault did not restore write permission")
	}
	r.h.DisableDirtyLog(r.domU.ID)
	audit(t, r.h)
	if e, _ := r.domU.PT.Lookup(0xA00); e.Perms&hw.PermW == 0 {
		t.Fatal("disable did not restore write permission")
	}
	// The guest's own read-only mapping must never gain PermW.
	if e, _ := r.domU.PT.Lookup(0xA01); e.Perms != hw.PermR {
		t.Fatalf("read-only mapping perms mutated to %v", e.Perms)
	}
}

func TestDirtyLogRearmKeepsCleanPagesRestorable(t *testing.T) {
	// Pages that never fault stay armed across Rearm; their record of
	// which mappings lost PermW must survive so disable (and migration's
	// PT transfer) can restore them. A rearm that rescanned the — now
	// write-protected — page table would wipe that record and leave clean
	// pages read-only forever.
	r := newVrig(t, hw.X86())
	dl, err := r.h.EnableDirtyLog(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	dl.Rearm()
	audit(t, r.h)
	dl.Rearm()
	r.h.DisableDirtyLog(r.domU.ID)
	audit(t, r.h)
	if e, ok := r.domU.PT.Lookup(hw.VPN(4)); !ok || e.Perms&hw.PermW == 0 {
		t.Fatalf("clean page left write-protected after rearm cycle: %+v ok=%v", e, ok)
	}
}

func TestDirtyLogLifecycleErrors(t *testing.T) {
	r := newVrig(t, hw.X86())
	if _, err := r.h.EnableDirtyLog(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.EnableDirtyLog(r.domU.ID); !errors.Is(err, ErrDirtyLogActive) {
		t.Fatalf("double enable err = %v, want ErrDirtyLogActive", err)
	}
	if err := r.h.GuestMemWrite(r.domU.ID, 9999, 0, []byte("x")); !errors.Is(err, ErrFrameNotOwned) {
		t.Fatalf("out-of-range write err = %v, want ErrFrameNotOwned", err)
	}
	if err := r.h.GuestMemWrite(r.domU.ID, 0, 4090, []byte("too-long")); err == nil {
		t.Fatal("page-overrunning write accepted")
	}
	r.h.DestroyDomain(r.domU.ID)
	audit(t, r.h)
	if err := r.h.GuestMemWrite(r.domU.ID, 0, 0, []byte("x")); !errors.Is(err, ErrDomainDead) {
		t.Fatalf("write to destroyed domain err = %v, want ErrDomainDead", err)
	}
	r.h.DisableDirtyLog(r.domU.ID) // destroyed domain: must be a no-op
}

// --- live pre-copy migration ------------------------------------------------

// liveRig is a source rig plus a destination hypervisor holding only its
// Dom0.
type liveRig struct {
	*vrig
	m2      *hw.Machine
	dstH    *Hypervisor
	dstDom0 *Domain
}

func newLiveRig(t *testing.T) *liveRig {
	t.Helper()
	src := newVrig(t, hw.X86())
	m2 := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512})
	dstH, d0, err := New(m2, 64)
	if err != nil {
		t.Fatal(err)
	}
	return &liveRig{vrig: src, m2: m2, dstH: dstH, dstDom0: d0}
}

func TestMigrateLiveMovesMemoryAndMappings(t *testing.T) {
	r := newLiveRig(t)
	r.m.Mem.Write(r.domU.FrameAt(7), 0, []byte("steady-state-page"))
	if err := r.h.MMUUpdate(r.domU.ID, 0x700, 7, hw.PermR, true); err != nil {
		t.Fatal(err)
	}
	// The guest keeps writing while pre-copy rounds run; every write must
	// still arrive, including one in the last live round.
	work := func(round int) {
		if err := r.h.GuestMemWrite(r.domU.ID, 9, 0, []byte{'r', byte('0' + round)}); err != nil {
			t.Fatal(err)
		}
		audit(t, r.h, r.dstH)
	}
	d2, stats, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{MaxRounds: 3, GuestWork: work})
	if err != nil {
		t.Fatal(err)
	}
	audit(t, r.h, r.dstH)
	if r.h.Alive(r.domU.ID) {
		t.Fatal("domain still alive at source")
	}
	if !r.dstH.Paused(d2.ID) {
		t.Fatal("migrated domain must arrive paused")
	}
	if got := string(readFrame(r.m2.Mem, d2.FrameAt(7), 17)); got != "steady-state-page" {
		t.Fatalf("memory corrupted in flight: %q", got)
	}
	wantLast := []byte{'r', byte('0' + stats.Rounds)}
	if got := readFrame(r.m2.Mem, d2.FrameAt(9), 2); string(got) != string(wantLast) {
		t.Fatalf("last-round write lost: %q, want %q", got, wantLast)
	}
	if e, ok := d2.PT.Lookup(0x700); !ok || e.Perms != hw.PermR {
		t.Fatal("guest mapping did not travel")
	}
	// Kernel identity mappings regain write permission at the destination
	// (the write-protection belonged to the dirty log, not the guest) —
	// both for the repeatedly dirtied page and for a never-written one.
	if e, ok := d2.PT.Lookup(hw.VPN(9)); !ok || e.Perms&hw.PermW == 0 {
		t.Fatalf("dirtied page's mapping lost PermW: %+v ok=%v", e, ok)
	}
	if e, ok := d2.PT.Lookup(hw.VPN(8)); !ok || e.Perms&hw.PermW == 0 {
		t.Fatalf("clean page's mapping lost PermW: %+v ok=%v", e, ok)
	}
	if stats.Rounds < 1 || stats.Rounds > 3 {
		t.Fatalf("rounds = %d", stats.Rounds)
	}
	if stats.PagesFinal > stats.PagesMoved || stats.PagesMoved < len(d2.Frames()) {
		t.Fatalf("page accounting wrong: %+v", stats)
	}
	if stats.Downtime <= 0 || stats.Total < stats.Downtime {
		t.Fatalf("cycle accounting wrong: %+v", stats)
	}
	// The arrival is a working guest.
	if err := r.dstH.Unpause(d2.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.dstH.Hypercall(d2.ID, "probe", 10); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateLiveDowntimeBeatsStopAndCopy(t *testing.T) {
	// The acceptance criterion: for a low-dirty-rate guest, pre-copy's
	// blackout is strictly shorter than freezing the guest for the whole
	// copy. Both legs run on identically prepared rigs.
	prep := func() *liveRig {
		r := newLiveRig(t)
		for gpn := 0; gpn < 16; gpn++ {
			r.m.Mem.Write(r.domU.FrameAt(gpn), 0, []byte{byte(gpn)})
		}
		return r
	}

	stop := prep()
	s0, d0 := stop.m.Now(), stop.m2.Now()
	if _, err := Migrate(stop.h, stop.domU.ID, stop.dstH); err != nil {
		t.Fatal(err)
	}
	audit(t, stop.h, stop.dstH)
	stopDowntime := (stop.m.Now() - s0) + (stop.m2.Now() - d0)

	live := prep()
	work := func(round int) {
		// Two pages per round: a light writable working set.
		for gpn := 0; gpn < 2; gpn++ {
			if err := live.h.GuestMemWrite(live.domU.ID, gpn, 0, []byte("hot")); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, stats, err := MigrateLive(live.h, live.domU.ID, live.dstH, LiveOpts{MaxRounds: 4, GuestWork: work})
	if err != nil {
		t.Fatal(err)
	}
	audit(t, live.h, live.dstH)
	if stats.Downtime >= stopDowntime {
		t.Fatalf("live downtime %d not below stop-and-copy %d", stats.Downtime, stopDowntime)
	}
	// Pre-copy pays for the shorter blackout with re-sent pages.
	if stats.PagesMoved <= stats.PagesFinal {
		t.Fatalf("expected pre-copy rounds to move extra pages: %+v", stats)
	}
}

func TestMigrateLivePreservesP2MHoles(t *testing.T) {
	r := newLiveRig(t)
	// Flip a frame away from domU to punch a hole in its P2M.
	f := r.domU.FrameAt(2)
	ref, err := r.h.GrantAccess(r.domU.ID, f, r.dom0.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.GrantTransfer(r.dom0.ID, r.domU.ID, ref); err != nil {
		t.Fatal(err)
	}
	d2, _, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	audit(t, r.h, r.dstH)
	if d2.FrameAt(2) != hw.NoFrame {
		t.Fatal("hole not preserved across live migration")
	}
	if d2.FrameAt(3) == hw.NoFrame {
		t.Fatal("neighbouring page lost")
	}
}

// TestMigrateLiveMapsWhatRestoreMaps: the shell a live migration builds
// maps exactly the source's pre-migration entries in guest terms, as a
// restore of the source's image does, and pays the same PTE updates for
// them. The guest's table holds two VPNs mapping one page, a read-only
// entry, an entry in the sparse map, a foreign grant mapping, which
// neither carries over, and the holes of four ballooned-out pages. The
// guest dirties pages behind each kind of entry while pre-copy runs and
// leaves another page clean, so the shell must undo the dirty log's write
// protection on both kinds.
func TestMigrateLiveMapsWhatRestoreMaps(t *testing.T) {
	const aliasVPN, roVPN, sparseVPN, grantVPN = hw.VPN(0x50), hw.VPN(0x51), hw.VPN(0x2000), hw.VPN(0x60)
	prep := func() (*liveRig, []savedPTE) {
		r := newLiveRig(t)
		for _, u := range []struct {
			vpn   hw.VPN
			gpn   int
			perms hw.Perm
		}{{aliasVPN, 5, hw.PermRW}, {roVPN, 7, hw.PermR}, {sparseVPN, 6, hw.PermRW}} {
			if err := r.h.MMUUpdate(r.domU.ID, u.vpn, u.gpn, u.perms, true); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := r.h.GrantAccess(r.dom0.ID, r.dom0.FrameAt(3), r.domU.ID, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.h.GrantMap(r.domU.ID, r.dom0.ID, ref, grantVPN); err != nil {
			t.Fatal(err)
		}
		if n, err := r.h.BalloonOut(r.domU.ID, 4); n != 4 || err != nil {
			t.Fatalf("BalloonOut = %d, %v", n, err)
		}
		audit(t, r.h)
		if _, ok := r.domU.PT.Lookup(grantVPN); !ok {
			t.Fatal("the grant mapping is not in the guest's table")
		}
		return r, capturePT(r.domU)
	}
	// mapCost is the destination monitor's cycles across fn less the page
	// copies it landed: the PTE updates mapSaved charges, and the build.
	mapCost := func(r *liveRig, fn func() (copied int)) hw.Cycles {
		before := r.m2.Rec.Cycles(HypervisorComponent)
		copied := fn()
		spent := hw.Cycles(r.m2.Rec.Cycles(HypervisorComponent) - before)
		return spent - hw.Cycles(copied)*r.m2.CPU.CopyCost(r.m2.Mem.PageSize())
	}

	restore, want := prep()
	if slices.ContainsFunc(want, func(e savedPTE) bool { return e.VPN == grantVPN }) {
		t.Fatal("the grant mapping was captured")
	}
	if len(want) != 60+3 {
		t.Fatalf("the guest's table holds %d own entries, want 63: 60 identity mappings and 3 more", len(want))
	}
	var restored *Domain
	restoreCost := mapCost(restore, func() int {
		if err := restore.h.Pause(restore.domU.ID); err != nil {
			t.Fatal(err)
		}
		img, err := restore.h.SaveDomain(restore.domU.ID)
		if err != nil {
			t.Fatal(err)
		}
		if restored, err = restore.dstH.RestoreDomain(img); err != nil {
			t.Fatal(err)
		}
		return restored.OwnedPages()
	})
	audit(t, restore.h, restore.dstH)

	live, liveWant := prep()
	if !slices.Equal(liveWant, want) {
		t.Fatal("two identically prepared guests hold different tables")
	}
	work := func(round int) {
		for _, gpn := range []int{5, 6, 7} {
			if err := live.h.GuestMemWrite(live.domU.ID, gpn, 0, []byte{byte(round)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var shell *Domain
	liveCost := mapCost(live, func() int {
		var stats *LiveStats
		var err error
		if shell, stats, err = MigrateLive(live.h, live.domU.ID, live.dstH, LiveOpts{MaxRounds: 3, GuestWork: work}); err != nil {
			t.Fatal(err)
		}
		return stats.PagesMoved
	})
	audit(t, live.h, live.dstH)

	for name, d := range map[string]*Domain{"the restored domain": restored, "the migration's shell": shell} {
		if got := capturePT(d); !slices.Equal(got, want) {
			t.Errorf("%s maps %v, want the source's %v", name, got, want)
		}
		if d.PT.Len() != len(want) {
			t.Errorf("%s holds %d entries, want %d", name, d.PT.Len(), len(want))
		}
	}
	if liveCost != restoreCost {
		t.Fatalf("the migration's shell cost its monitor %d cycles beyond the copies, the restore %d: the PTE updates differ",
			liveCost, restoreCost)
	}
}

// flipIn hands Dom0's page gpn, holding marker, to the guest by page flip;
// the guest installs it in a P2M hole, or past the end.
func flipIn(t *testing.T, r *liveRig, gpn int, marker string) {
	t.Helper()
	f := r.dom0.FrameAt(gpn)
	r.m.Mem.Write(f, 0, []byte(marker))
	ref, err := r.h.GrantAccess(r.dom0.ID, f, r.domU.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.GrantTransfer(r.domU.ID, r.dom0.ID, ref); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateLiveMirrorsP2MChanges changes the guest's P2M between pre-copy
// rounds and requires the destination to hold exactly the pages the source
// holds at the blackout, with the same contents.
func TestMigrateLiveMirrorsP2MChanges(t *testing.T) {
	// pages reads every page d's P2M holds, by gpn.
	pages := func(m *hw.Machine, d *Domain) map[int]string {
		out := map[int]string{}
		for gpn, f := range d.Frames() {
			if f != hw.NoFrame {
				out[gpn] = string(readFrame(m.Mem, f, int(m.Mem.PageSize())))
			}
		}
		return out
	}
	cases := []struct {
		name   string
		change func(t *testing.T, r *liveRig)
	}{
		{"flip past the end of the P2M", func(t *testing.T, r *liveRig) {
			flipIn(t, r, 2, "past-the-end")
		}},
		{"flip into a hole punched after round 1", func(t *testing.T, r *liveRig) {
			if _, err := r.h.BalloonOut(r.domU.ID, 1); err != nil {
				t.Fatal(err)
			}
			flipIn(t, r, 3, "into-the-hole")
		}},
		{"balloon out", func(t *testing.T, r *liveRig) {
			if n, err := r.h.BalloonOut(r.domU.ID, 4); err != nil || n != 4 {
				t.Fatalf("BalloonOut = %d, %v", n, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newLiveRig(t)
			var want map[int]string
			opts := LiveOpts{
				MaxRounds: 3,
				GuestWork: func(round int) {
					switch round {
					case 1: // a write keeps the pre-copy going into round 2
						if err := r.h.GuestMemWrite(r.domU.ID, 0, 0, []byte("r1")); err != nil {
							t.Fatal(err)
						}
					case 2:
						tc.change(t, r)
					}
					audit(t, r.h, r.dstH)
				},
				Transport: func(round, _ int) error {
					if round == 0 { // the blackout: the source's P2M is final
						want = pages(r.m, r.domU)
					}
					return nil
				},
			}
			d2, _, err := MigrateLive(r.h, r.domU.ID, r.dstH, opts)
			if err != nil {
				t.Fatal(err)
			}
			audit(t, r.h, r.dstH)
			if got := pages(r.m2, d2); !maps.Equal(got, want) {
				t.Errorf("destination holds %d pages, source held %d at the blackout", len(got), len(want))
				for gpn := range max(len(d2.Frames()), len(r.domU.Frames())) {
					if got[gpn] != want[gpn] {
						t.Errorf("gpn %d differs", gpn)
					}
				}
			}
		})
	}
}

// TestMigrateLiveShellOutOfMemoryAborts: a page the guest gains
// mid-migration needs a destination frame, and with none free the
// migration aborts cleanly, as it does when the link fails.
func TestMigrateLiveShellOutOfMemoryAborts(t *testing.T) {
	r := newLiveRig(t)
	// Leave the destination exactly the frames the shell is built with.
	filler := r.m2.Rec.Intern("filler")
	if _, err := r.m2.Mem.AllocN(filler, r.m2.Mem.FreeFrames()-r.domU.OwnedPages()); err != nil {
		t.Fatal(err)
	}
	dstDomains := len(r.dstH.Domains())
	_, _, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{GuestWork: func(round int) {
		if round == 1 {
			flipIn(t, r, 2, "no-room")
		}
	}})
	if !errors.Is(err, ErrMigrationAborted) || !errors.Is(err, hw.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrMigrationAborted wrapping hw.ErrOutOfMemory", err)
	}
	audit(t, r.h, r.dstH)
	if got := len(r.dstH.Domains()); got != dstDomains {
		t.Errorf("destination holds %d domains after abort, want %d", got, dstDomains)
	}
	if !r.h.Alive(r.domU.ID) || r.h.Paused(r.domU.ID) || r.domU.dirtyLog != nil {
		t.Fatal("abort left the source dead, paused or logging")
	}
}

func TestMigrateLiveWSSCutoffBoundsRounds(t *testing.T) {
	r := newLiveRig(t)
	// A guest that redirties its whole memory every round can never
	// converge; the working-set cutoff must stop the iteration at the
	// first non-shrinking round rather than burning the full budget.
	n := len(r.domU.Frames())
	work := func(round int) {
		for gpn := 0; gpn < n; gpn++ {
			if err := r.h.GuestMemWrite(r.domU.ID, gpn, 0, []byte{byte(round)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, stats, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{MaxRounds: 8, GuestWork: work})
	if err != nil {
		t.Fatal(err)
	}
	audit(t, r.h, r.dstH)
	if stats.Rounds != 1 {
		t.Fatalf("non-converging guest ran %d rounds, want the cutoff after 1", stats.Rounds)
	}
	if stats.PagesFinal != n {
		t.Fatalf("final round moved %d pages, want the whole working set %d", stats.PagesFinal, n)
	}
}

func TestMigrateLiveErrors(t *testing.T) {
	r := newLiveRig(t)
	if _, _, err := MigrateLive(r.h, 9999, r.dstH, LiveOpts{}); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("err = %v, want ErrNoSuchDomain", err)
	}
	r.h.DestroyDomain(r.domU.ID)
	if _, _, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{}); !errors.Is(err, ErrDomainDead) {
		t.Fatalf("err = %v, want ErrDomainDead", err)
	}
	// A failed migration must not leave the source's dirty log armed.
	r2 := newLiveRig(t)
	tiny := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 8})
	tinyH, _, err := New(tiny, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := MigrateLive(r2.h, r2.domU.ID, tinyH, LiveOpts{}); err == nil {
		t.Fatal("migration into an out-of-memory destination should fail")
	}
	audit(t, r2.h, tinyH)
	if r2.domU.dirtyLog != nil {
		t.Fatal("failed migration left the dirty log enabled")
	}
	// The domain is unharmed and can be migrated properly afterwards.
	if _, _, err := MigrateLive(r2.h, r2.domU.ID, r2.dstH, LiveOpts{}); err != nil {
		t.Fatal(err)
	}
	audit(t, r2.h, r2.dstH)
}

// --- transport hook and abort unwinding --------------------------------------

// TestMigrateLiveTransportSeesEveryBatch pins the Transport contract: it is
// consulted once per pre-copy round (1-based, with the round's page count)
// and once for the blackout batch (round 0), and a clean link changes
// nothing about the migration's outcome.
func TestMigrateLiveTransportSeesEveryBatch(t *testing.T) {
	r := newLiveRig(t)
	if err := r.h.GuestMemWrite(r.domU.ID, 3, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	type batch struct{ round, pages int }
	var batches []batch
	moved, _, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{
		Transport: func(round, pages int) error {
			batches = append(batches, batch{round, pages})
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	audit(t, r.h, r.dstH)
	if len(batches) < 2 {
		t.Fatalf("transport saw %d batches, want >= 2 (pre-copy + blackout)", len(batches))
	}
	if batches[0].round != 1 || batches[0].pages != 64 {
		t.Errorf("first batch = %+v, want round 1 with all 64 pages", batches[0])
	}
	if last := batches[len(batches)-1]; last.round != 0 {
		t.Errorf("last batch = %+v, want the blackout (round 0)", last)
	}
	if moved == nil {
		t.Fatal("no destination domain")
	}
}

// TestMigrateLiveLinkFailureAborts: a transport error during pre-copy must
// abort cleanly — the sentinel and the cause both surface, the dirty log is
// off, the destination keeps no shell, and the source is live and
// migratable again.
func TestMigrateLiveLinkFailureAborts(t *testing.T) {
	linkDown := errors.New("link down")
	for name, failAt := range map[string]int{"pre-copy": 1, "blackout": 0} {
		t.Run(name, func(t *testing.T) {
			r := newLiveRig(t)
			dstDomains := len(r.dstH.Domains())
			_, _, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{
				Transport: func(round, pages int) error {
					if round == failAt {
						return linkDown
					}
					return nil
				},
			})
			if !errors.Is(err, ErrMigrationAborted) || !errors.Is(err, linkDown) {
				t.Fatalf("err = %v, want ErrMigrationAborted wrapping the link error", err)
			}
			audit(t, r.h, r.dstH)
			if r.domU.dirtyLog != nil {
				t.Error("abort left the dirty log enabled")
			}
			if got := len(r.dstH.Domains()); got != dstDomains {
				t.Errorf("destination holds %d domains after abort, want %d", got, dstDomains)
			}
			if !r.h.Alive(r.domU.ID) || r.h.Paused(r.domU.ID) {
				t.Fatal("abort left the source dead or paused")
			}
			if _, _, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{}); err != nil {
				t.Fatalf("source not migratable after abort: %v", err)
			}
			audit(t, r.h, r.dstH)
		})
	}
}

// TestMigrateLiveSourceDeathAborts: the guest dying between rounds (crash
// or toolstack DestroyDomain) aborts with ErrDomainDead and releases every
// destination frame the half-filled shell held.
func TestMigrateLiveSourceDeathAborts(t *testing.T) {
	r := newLiveRig(t)
	dstFree := r.m2.Mem.FreeFrames()
	_, _, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{
		MaxRounds: 4,
		GuestWork: func(round int) {
			if round == 2 {
				r.h.DestroyDomain(r.domU.ID)
			} else if err := r.h.GuestMemWrite(r.domU.ID, round, 0, []byte("dirty")); err != nil {
				t.Error(err)
			}
			audit(t, r.h, r.dstH)
		},
	})
	if !errors.Is(err, ErrMigrationAborted) || !errors.Is(err, ErrDomainDead) {
		t.Fatalf("err = %v, want ErrMigrationAborted wrapping ErrDomainDead", err)
	}
	audit(t, r.h, r.dstH)
	if got := r.m2.Mem.FreeFrames(); got != dstFree {
		t.Errorf("destination frames leaked: %d free after abort, want %d", got, dstFree)
	}
}

// TestMigrateLiveCallerPausedStaysPaused: abort only resumes a source the
// migration itself paused — a domain the caller paused stays paused.
func TestMigrateLiveCallerPausedStaysPaused(t *testing.T) {
	r := newLiveRig(t)
	if err := r.h.Pause(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	linkDown := errors.New("link down")
	_, _, err := MigrateLive(r.h, r.domU.ID, r.dstH, LiveOpts{
		Transport: func(round, pages int) error { return linkDown },
	})
	if !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("err = %v, want ErrMigrationAborted", err)
	}
	audit(t, r.h, r.dstH)
	if !r.h.Paused(r.domU.ID) {
		t.Error("abort resumed a domain the caller had paused")
	}
}
