// migration demonstrates the management story that made "treat the OS as a
// component" (§3.3) compelling on the VMM side: pause a running guest,
// serialise it, move it to a different physical machine, resume it — with
// its memory and page tables intact — and pair it with a Parallax
// copy-on-write snapshot of its storage, the Warfield et al. combination
// the rebuttal's §3.1 discusses.
//
// A second leg repeats the move with live pre-copy migration: the guest
// keeps running (and writing memory) while its pages stream across, and
// only a final whittled-down working set crosses during the blackout — the
// downtime comparison is printed at the end.
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"log"

	"vmmk/internal/core"
	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/vmm"
	"vmmk/internal/vmmos"
)

func main() {
	log.SetFlags(0)
	fmt.Println("migration — a guest and its storage move between machines")
	fmt.Println()

	// Machine A: full stack with one guest.
	src, err := core.NewXenStack(core.Config{Guests: 1})
	if err != nil {
		log.Fatal(err)
	}
	guest := src.Guests[0]

	// The guest does some work and writes state it will need later.
	if _, err := guest.Syscall(src.Procs[0], guestos.SysGetPID); err != nil {
		log.Fatal(err)
	}
	if err := guest.Blk.Write(3, []byte("pre-migration state")); err != nil {
		log.Fatal(err)
	}
	// Snapshot the virtual disk before moving (crash-consistent point).
	captured, err := src.PX.Snapshot(guest.Dom.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine A: guest %q ran, wrote block 3, snapshot captured %d block(s)\n",
		guest.Dom.Name, captured)

	// Distinctive memory pattern to verify the move end to end.
	const pattern = "memory travels whole"
	src.M().Mem.Write(guest.Dom.FrameAt(9), 0, []byte(pattern))

	// Machine B: the destination, with its stock guest destroyed. That
	// guest is a domU1 too, and live domain names are unique.
	dst := emptyXenStack()

	s0, d0 := src.M().Now(), dst.M().Now()
	moved, err := vmm.Migrate(src.H, guest.Dom.ID, dst.H)
	if err != nil {
		log.Fatal(err)
	}
	stopDowntime := (src.M().Now() - s0) + (dst.M().Now() - d0)
	fmt.Printf("migrated: source alive=%v, destination domain %q paused=%v\n",
		src.H.Alive(guest.Dom.ID), moved.Name, dst.H.Paused(moved.ID))

	got := make([]byte, len(pattern))
	dst.M().Mem.Read(moved.FrameAt(9), 0, got)
	if string(got) != pattern {
		log.Fatalf("memory corrupted in flight: %q", got)
	}
	fmt.Println("memory verified at destination: \"memory travels whole\"")

	// Resume and reconnect devices (frontends always reconnect after a
	// migration; connection state deliberately does not travel).
	if err := dst.H.Unpause(moved.ID); err != nil {
		log.Fatal(err)
	}
	gk2 := vmmos.NewGuestKernel(dst.H, moved)
	if _, err := vmmos.ConnectNet(dst.DD, gk2); err != nil {
		log.Fatal(err)
	}
	if _, err := dst.PX.AttachClient(gk2, 256); err != nil {
		log.Fatal(err)
	}
	p := gk2.Spawn("app")
	if _, err := gk2.Syscall(p.PID, guestos.SysGetPID); err != nil {
		log.Fatal(err)
	}
	if err := gk2.Blk.Write(4, []byte("post-migration write")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("destination: guest resumed, syscalls and storage work")
	fmt.Println()
	fmt.Println("The snapshot on machine A still holds the pre-migration data:")
	snap := src.PX.SnapshotRead(guest.Dom.ID, 3)
	fmt.Printf("  snapshot(block 3) = %q\n", snap[:19])

	// ------------------------------------------------------------------
	// Leg two: the same move, live. The guest keeps executing while its
	// memory streams across; the dirty log catches its writes and each
	// pre-copy round re-sends only what changed since the last one.
	fmt.Println()
	fmt.Println("live pre-copy migration — the guest keeps running while it moves")
	fmt.Println()

	srcB, err := core.NewXenStack(core.Config{Guests: 1})
	if err != nil {
		log.Fatal(err)
	}
	gB := srcB.Guests[0]
	if err := gB.Blk.Write(3, []byte("live-guest state")); err != nil {
		log.Fatal(err)
	}
	if _, err := srcB.PX.Snapshot(gB.Dom.ID); err != nil {
		log.Fatal(err)
	}
	dstB := emptyXenStack()

	// The concurrent workload: every pre-copy round the guest keeps
	// scribbling into a small hot set, plus one late page the final
	// blackout round must carry.
	hot := []int{10, 11, 12}
	work := func(round int) {
		for _, gpn := range hot {
			msg := fmt.Sprintf("hot page %d, round %d", gpn, round)
			if err := gB.WriteMemory(gpn, 0, []byte(msg)); err != nil {
				log.Fatal(err)
			}
		}
	}
	movedB, stats, err := vmm.MigrateLive(srcB.H, gB.Dom.ID, dstB.H, vmm.LiveOpts{
		MaxRounds: 4,
		WSSCutoff: 2,
		GuestWork: work,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pre-copy ran %d round(s): %d page transfers in total, only %d during the blackout\n",
		stats.Rounds, stats.PagesMoved, stats.PagesFinal)

	// The last round's writes made it, even though the guest never paused
	// until the final instant.
	want := fmt.Sprintf("hot page %d, round %d", hot[0], stats.Rounds)
	got = make([]byte, len(want))
	dstB.M().Mem.Read(movedB.FrameAt(hot[0]), 0, got)
	if string(got) != want {
		log.Fatalf("live write lost in flight: %q != %q", got, want)
	}
	fmt.Printf("last live round's write verified at destination: %q\n", got)

	// Frontends reconnect exactly as in the stop-and-copy leg.
	if err := dstB.H.Unpause(movedB.ID); err != nil {
		log.Fatal(err)
	}
	gkB := vmmos.NewGuestKernel(dstB.H, movedB)
	if _, err := vmmos.ConnectNet(dstB.DD, gkB); err != nil {
		log.Fatal(err)
	}
	if _, err := dstB.PX.AttachClient(gkB, 256); err != nil {
		log.Fatal(err)
	}
	if err := gkB.Blk.Write(4, []byte("post-live write")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("destination: live-migrated guest resumed, storage reconnected")
	fmt.Println()
	fmt.Printf("downtime: stop-and-copy froze the guest for %d cycles;\n", stopDowntime)
	fmt.Printf("          live pre-copy blacked out for %d cycles (%.1fx shorter)\n",
		stats.Downtime, float64(stopDowntime)/float64(maxCycles(stats.Downtime, 1)))
	fmt.Println()
	fmt.Println("This is the workload the paper's debate is really about: whole-OS")
	fmt.Println("mobility and storage management as ordinary operations over components.")
}

// emptyXenStack boots a full stack and destroys its stock guest, leaving
// a destination that can receive a migrating guest of any name.
func emptyXenStack() *core.XenStack {
	s, err := core.NewXenStack(core.Config{Guests: 0})
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range s.Guests {
		if err := s.H.DestroyDomain(g.Dom.ID); err != nil {
			log.Fatal(err)
		}
	}
	return s
}

func maxCycles(a, b hw.Cycles) hw.Cycles {
	if a > b {
		return a
	}
	return b
}
