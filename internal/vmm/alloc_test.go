package vmm

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"vmmk/internal/hw"
)

// allocSizes are the guest sizes the allocation gates compare: a guest's
// page count must not show in what one operation allocates.
var allocSizes = []int{16, 64, 256}

// sizedHost boots a hypervisor with room for a 256-page guest and its
// migration shell.
func sizedHost(t *testing.T) *Hypervisor {
	t.Helper()
	h, _, err := New(hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 640}), 64)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// allocsPerRun is testing.AllocsPerRun counting bytes as well: what one
// run of fn allocates, in whole objects and in bytes, averaged over runs
// after one warm-up run.
func allocsPerRun(runs int, fn func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// bytesPerPage is what each page past the smallest guest adds to what an
// operation allocates, the largest guest against the smallest.
func bytesPerPage(bytes []float64) float64 {
	return (bytes[len(bytes)-1] - bytes[0]) / float64(allocSizes[len(allocSizes)-1]-allocSizes[0])
}

// TestMigrateLiveAllocatesPerDomainNotPerPage: one live migration, with
// the guest dirtying pages in every pre-copy round, allocates 7 objects
// whatever the guest's size: the shell domain, its P2M and its page
// table, the source's dirty log with its per-page state and the one list
// every Rearm reuses, and the migration's stats. A guest with 8 pages
// ballooned out allocates exactly one object more, at every size: the
// shell's P2M, which it lays out around the holes. The holes are NoFrame
// slots in that P2M and cost nothing more. Each page adds at most 9
// bytes: 4 in the shell's P2M, 4 in its page table and 1 in the source's
// dirty log. The migration reads the source's P2M and page table in
// place, so it copies neither.
func TestMigrateLiveAllocatesPerDomainNotPerPage(t *testing.T) {
	const holes, objects, maxPerPage = 8, 7, 9
	counts := make([]float64, len(allocSizes))
	bytes := make([]float64, len(allocSizes))
	for k, pages := range allocSizes {
		counts[k], bytes[k] = liveMigrationAllocs(t, pages, 0)
		if n, _ := liveMigrationAllocs(t, pages, holes); n != counts[k]+1 {
			t.Fatalf("a %d-page guest with %d holes allocates %v objects per migration, want %v: one more than without holes",
				pages, holes, n, counts[k]+1)
		}
	}
	t.Logf("objects and bytes per migration for guests of %v pages: %v, %v", allocSizes, counts, bytes)
	for k := range counts {
		if counts[k] != objects {
			t.Fatalf("one live migration allocates %v objects for guests of %v pages, want %d at every size",
				counts, allocSizes, objects)
		}
	}
	if b := bytesPerPage(bytes); b > maxPerPage {
		t.Fatalf("one live migration allocates %.1f bytes per guest page, want at most %d", b, maxPerPage)
	}
}

// liveMigrationAllocs returns what one live migration of a pages-page
// guest with its top holes pages ballooned out allocates, in objects and
// in bytes, the guest bouncing between two hosts that have both held it
// before the count.
func liveMigrationAllocs(t *testing.T, pages, holes int) (objects, bytes float64) {
	t.Helper()
	hs := [2]*Hypervisor{sizedHost(t), sizedHost(t)}
	d, err := hs[0].CreateDomain("guest", pages)
	if err != nil {
		t.Fatal(err)
	}
	// Every page holds bytes, so every frame either host hands the guest
	// has a content buffer once it has held a page: the count sees the
	// migration's own allocations, not first writes.
	for gpn := 0; gpn < pages; gpn++ {
		if err := hs[0].GuestMemWrite(d.ID, gpn, 0, []byte("page")); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := hs[0].BalloonOut(d.ID, holes); n != holes || err != nil {
		t.Fatalf("ballooned out %d of %d pages: %v", n, holes, err)
	}
	i := 0
	var src *Hypervisor
	opts := LiveOpts{MaxRounds: 3, GuestWork: func(round int) {
		for gpn := 0; gpn < 4; gpn++ {
			_ = src.GuestMemWrite(d.ID, gpn, 0, []byte{byte(round)})
		}
	}}
	var migErr error
	migrate := func() {
		src = hs[i%2]
		if d, _, err = MigrateLive(src, d.ID, hs[(i+1)%2], opts); err != nil {
			migErr = err
		}
		i++
	}
	migrate() // both hosts have held the guest before the count starts
	objects, bytes = allocsPerRun(20, migrate)
	if migErr != nil {
		t.Fatal(migErr)
	}
	audit(t, hs[0], hs[1])
	if got := len(d.Frames()) - d.OwnedPages(); got != holes {
		t.Fatalf("the migrated guest has %d P2M holes, want %d", got, holes)
	}
	return objects, bytes
}

// TestDomainBuildAllocatesPerPage: a domain build on a warm hypervisor
// allocates at most 8 bytes per page: 4 for the P2M entry and 4 for the
// page-table entry that maps the page.
func TestDomainBuildAllocatesPerPage(t *testing.T) {
	const maxPerPage = 8
	bytes := make([]float64, len(allocSizes))
	for k, pages := range allocSizes {
		h := sizedHost(t)
		var buildErr error
		_, bytes[k] = allocsPerRun(20, func() {
			d, err := h.CreateDomain("guest", pages)
			if err == nil {
				err = h.DestroyDomain(d.ID)
			}
			if err != nil {
				buildErr = err
			}
		})
		if buildErr != nil {
			t.Fatal(buildErr)
		}
		audit(t, h)
	}
	t.Logf("bytes per domain build and teardown for guests of %v pages: %v", allocSizes, bytes)
	if b := bytesPerPage(bytes); b > maxPerPage {
		t.Fatalf("a domain build allocates %.1f bytes per page, want at most %d", b, maxPerPage)
	}
}

// TestDirtyLogCycleAllocates pins what one enable/write/rearm/disable
// cycle allocates at most: the log, its per-page state and the dirty list
// Rearm returns, whatever the guest's size.
func TestDirtyLogCycleAllocates(t *testing.T) {
	const limit = 3
	for _, pages := range allocSizes {
		t.Run(fmt.Sprint(pages), func(t *testing.T) {
			h := sizedHost(t)
			d, err := h.CreateDomain("guest", pages)
			if err != nil {
				t.Fatal(err)
			}
			var cycleErr error
			b := []byte{1}
			n := testing.AllocsPerRun(20, func() {
				dl, err := h.EnableDirtyLog(d.ID)
				if err != nil {
					cycleErr = err
					return
				}
				if err := h.GuestMemWrite(d.ID, pages/2, 0, b); err != nil {
					cycleErr = err
				}
				dl.Rearm()
				h.DisableDirtyLog(d.ID)
			})
			if cycleErr != nil {
				t.Fatal(cycleErr)
			}
			audit(t, h)
			if n > limit {
				t.Fatalf("a dirty-log cycle on a %d-page guest allocates %v objects, want at most %d", pages, n, limit)
			}
		})
	}
}

// TestHypervisorBootAllocates pins what a warm boot allocates: a
// hypervisor with a 256-page Dom0 and two 128-page guests on a Reset
// 1,024-frame machine. The M2P lives in the machine's frame table, which
// the machine keeps across Reset, so the boot allocates the domains' own
// state and nothing for the M2P, and the machine's registry already holds
// every domain's name, so interning one builds no string.
func TestHypervisorBootAllocates(t *testing.T) {
	const want = 14
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 1024})
	var bootErr error
	boot := func() {
		m.Reset()
		h, _, err := New(m, 256)
		for _, name := range []string{"a", "b"} {
			if err == nil {
				_, err = h.CreateDomain(name, 128)
			}
		}
		if err != nil {
			bootErr = err
		}
	}
	n := testing.AllocsPerRun(20, boot)
	if bootErr != nil {
		t.Fatal(bootErr)
	}
	if n != want {
		t.Fatalf("a warm boot allocates %v objects, want %d", n, want)
	}
}

// TestDomainSize: a domain holds its page table, not a reference to one,
// and keeps only the pCPUs its shootdowns and kicks target, not a per-vCPU
// placement list, so every domain built, migrated or restored is one
// object of at most 224 bytes, its table included.
func TestDomainSize(t *testing.T) {
	var d Domain
	if n, want := unsafe.Sizeof(d.PT), unsafe.Sizeof(hw.PageTable{}); n != want {
		t.Fatalf("Domain.PT is %d bytes, want the %d-byte table itself", n, want)
	}
	if n := unsafe.Sizeof(d); n > 224 {
		t.Fatalf("Domain is %d bytes, want at most 224", n)
	}
}
