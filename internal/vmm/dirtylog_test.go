package vmm

import (
	"bytes"
	"slices"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

func TestDirtyLogFrameMappedWritableTwice(t *testing.T) {
	r := newVrig(t, hw.X86())
	// gpn 6 is identity-mapped at VPN 6 and gets two more writable aliases.
	for _, vpn := range []hw.VPN{0xB00, 0xB01} {
		if err := r.h.MMUUpdate(r.domU.ID, vpn, 6, hw.PermRW, true); err != nil {
			t.Fatal(err)
		}
	}
	audit(t, r.h)
	aliases := []hw.VPN{6, 0xB00, 0xB01}
	writable := func() (n int) {
		for _, vpn := range aliases {
			if e, ok := r.domU.PT.Lookup(vpn); ok && e.Perms&hw.PermW != 0 {
				n++
			}
		}
		return n
	}
	dl, err := r.h.EnableDirtyLog(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if n := writable(); n != 0 {
		t.Fatalf("%d aliases still writable after arm", n)
	}
	for _, vpn := range aliases {
		if !dl.stripped(6, vpn) {
			t.Fatalf("log has no record of protecting alias %#x, want all three aliases", vpn)
		}
	}
	if n := dl.nstripped(6); n != 3 {
		t.Fatalf("log recorded %d protected mappings of gpn 6, want 3", n)
	}
	before := r.m.Rec.Cycles(HypervisorComponent)
	faults0 := r.m.Rec.Counts(trace.KDirtyLogFault)
	if err := r.h.GuestMemWrite(r.domU.ID, 6, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if n := writable(); n != 3 {
		t.Fatalf("fault restored PermW on %d of 3 aliases", n)
	}
	if r.m.Rec.Counts(trace.KDirtyLogFault) != faults0+1 {
		t.Fatal("one store must take exactly one fault")
	}
	// The fault re-enables every alias: three PTE updates, not one.
	spent := r.m.Rec.Cycles(HypervisorComponent) - before
	if min := 3 * uint64(r.m.Arch.Costs.PTEUpdate); spent < min {
		t.Fatalf("fault cost %d cycles, below the %d of three PTE updates", spent, min)
	}
	if got := dl.Rearm(); !slices.Equal(got, []int{6}) {
		t.Fatalf("rearm = %v, want [6]", got)
	}
	audit(t, r.h)
	if n := writable(); n != 0 {
		t.Fatalf("%d aliases writable after rearm", n)
	}
	r.h.DisableDirtyLog(r.domU.ID)
	audit(t, r.h)
	if n := writable(); n != 3 {
		t.Fatalf("disable restored %d of 3 aliases", n)
	}
}

// TestDirtyLogFaultChargesEachStrippedMapping: a write fault re-enables
// every mapping the log write-protected, one PTE update each. A page with
// three writable aliases costs exactly two PTE updates more than a page
// with one, and a page with none still pays one.
func TestDirtyLogFaultChargesEachStrippedMapping(t *testing.T) {
	r := newVrig(t, hw.X86())
	for _, vpn := range []hw.VPN{0xB00, 0xB01} { // gpn 6: three writable aliases
		if err := r.h.MMUUpdate(r.domU.ID, vpn, 6, hw.PermRW, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.h.MMUUnmap(r.domU.ID, 9); err != nil { // gpn 9: no mapping
		t.Fatal(err)
	}
	if _, err := r.h.EnableDirtyLog(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	// The first fault also switches to the domain; the ones measured don't.
	if err := r.h.GuestMemWrite(r.domU.ID, 7, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	cost := func(gpn int) uint64 {
		t.Helper()
		before := r.m.Rec.Cycles(HypervisorComponent)
		if err := r.h.GuestMemWrite(r.domU.ID, gpn, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		return r.m.Rec.Cycles(HypervisorComponent) - before
	}
	one, three, none := cost(8), cost(6), cost(9)
	pte := uint64(r.m.Arch.Costs.PTEUpdate)
	if three != one+2*pte || none != one {
		t.Fatalf("faults cost %d (one mapping), %d (three), %d (none); want %d, %d, %d",
			one, three, none, one, one+2*pte, one)
	}
}

func TestDirtyLogReadOnlyAliasStaysReadOnly(t *testing.T) {
	r := newVrig(t, hw.X86())
	// gpn 7: writable at its identity VPN, read-only at 0xC00.
	if err := r.h.MMUUpdate(r.domU.ID, 0xC00, 7, hw.PermR, true); err != nil {
		t.Fatal(err)
	}
	dl, err := r.h.EnableDirtyLog(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		audit(t, r.h)
		if e, _ := r.domU.PT.Lookup(0xC00); e.Perms != hw.PermR {
			t.Fatalf("%s: read-only alias perms %v", when, e.Perms)
		}
	}
	check("armed")
	if err := r.h.GuestMemWrite(r.domU.ID, 7, 0, []byte("w")); err != nil {
		t.Fatal(err)
	}
	check("after the fault")
	dl.Rearm()
	check("rearmed")
	r.h.DisableDirtyLog(r.domU.ID)
	check("disabled")
	if e, _ := r.domU.PT.Lookup(7); e.Perms&hw.PermW == 0 {
		t.Fatal("writable identity mapping lost PermW")
	}
}

func TestDirtyLogLogsPagesBalloonedInWhileArmed(t *testing.T) {
	r := newVrig(t, hw.X86())
	if _, err := r.h.BalloonOut(r.domU.ID, 1); err != nil { // hole at gpn 63
		t.Fatal(err)
	}
	audit(t, r.h)
	dl, err := r.h.EnableDirtyLog(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Refills the hole and grows the P2M to gpns 64 and 65.
	if got, err := r.h.BalloonIn(r.domU.ID, 3); err != nil || got != 3 {
		t.Fatalf("BalloonIn = %d, %v", got, err)
	}
	audit(t, r.h)
	for _, gpn := range []int{65, 63} {
		faults := r.m.Rec.Counts(trace.KDirtyLogFault)
		if err := r.h.GuestMemWrite(r.domU.ID, gpn, 0, []byte("new")); err != nil {
			t.Fatal(err)
		}
		audit(t, r.h)
		if r.m.Rec.Counts(trace.KDirtyLogFault) != faults+1 {
			t.Fatalf("store to ballooned-in gpn %d did not fault", gpn)
		}
	}
	// 64 was never written, but its slot was filled while the log was on.
	if got := dl.Rearm(); !slices.Equal(got, []int{63, 64, 65}) {
		t.Fatalf("rearm = %v, want [63 64 65]", got)
	}
	audit(t, r.h)
	// Rearm protects the page that was never written, too.
	if err := r.h.GuestMemWrite(r.domU.ID, 64, 0, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if got := dl.Dirty(); !slices.Equal(got, []int{64}) {
		t.Fatalf("dirty = %v, want [64]", got)
	}
}

func TestDirtyLogDirtyIsAscending(t *testing.T) {
	r := newVrig(t, hw.X86())
	dl, err := r.h.EnableDirtyLog(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, gpn := range []int{40, 3, 17, 63, 0, 17} {
		if err := r.h.GuestMemWrite(r.domU.ID, gpn, 0, []byte{1}); err != nil {
			t.Fatal(err)
		}
		audit(t, r.h)
	}
	want := []int{0, 3, 17, 40, 63}
	if got := dl.Dirty(); !slices.Equal(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}
	if got := dl.Rearm(); !slices.Equal(got, want) {
		t.Fatalf("rearm = %v, want %v", got, want)
	}
	audit(t, r.h)
	if got := dl.Dirty(); len(got) != 0 {
		t.Fatalf("dirty after rearm = %v", got)
	}
}

// recycledHost boots a hypervisor whose free frames a previous guest wrote
// and released, so every page the next domain gets holds stale bytes.
func recycledHost(t *testing.T) (*hw.Machine, *Hypervisor) {
	t.Helper()
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512})
	h, _, err := New(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := h.CreateDomain("prev", 256)
	if err != nil {
		t.Fatal(err)
	}
	audit(t, h)
	junk := bytes.Repeat([]byte{0xEE}, int(m.Mem.PageSize()))
	for gpn := range prev.Frames() {
		if err := h.GuestMemWrite(prev.ID, gpn, 0, junk); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.DestroyDomain(prev.ID); err != nil {
		t.Fatal(err)
	}
	audit(t, h)
	return m, h
}

// TestMigrateOntoRecycledFrames moves a guest whose pages are partly
// written and partly untouched between two hosts whose frames a previous
// guest dirtied: the destination must read back exactly the source's bytes
// and zeros, never the previous tenant's.
func TestMigrateOntoRecycledFrames(t *testing.T) {
	const pages = 96
	for _, live := range []bool{false, true} {
		srcM, src := recycledHost(t)
		dstM, dst := recycledHost(t)
		d, err := src.CreateDomain("guest", pages)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, pages)
		for gpn := range want {
			want[gpn] = make([]byte, srcM.Mem.PageSize())
		}
		write := func(gpn, off int, data []byte) {
			t.Helper()
			if err := src.GuestMemWrite(d.ID, gpn, off, data); err != nil {
				t.Fatal(err)
			}
			copy(want[gpn][off:], data)
			audit(t, src, dst)
		}
		for gpn := 0; gpn < pages; gpn += 3 {
			write(gpn, gpn, []byte("written"))
		}
		var moved *Domain
		if live {
			work := func(round int) {
				write(round, 100, []byte{byte(round)})
				write(pages-1, 0, []byte{0, byte(round)})
			}
			moved, _, err = MigrateLive(src, d.ID, dst, LiveOpts{MaxRounds: 3, GuestWork: work})
		} else {
			moved, err = Migrate(src, d.ID, dst)
		}
		if err != nil {
			t.Fatal(err)
		}
		audit(t, src, dst)
		for gpn := range want {
			if got := readFrame(dstM.Mem, moved.FrameAt(gpn), len(want[gpn])); !bytes.Equal(got, want[gpn]) {
				i := 0
				for got[i] == want[gpn][i] {
					i++
				}
				t.Fatalf("live=%v: gpn %d reads %#x at byte %d, want %#x", live, gpn, got[i], i, want[gpn][i])
			}
		}
		for _, m := range []*hw.Machine{srcM, dstM} {
			if err := m.Mem.Audit(); err != nil {
				t.Fatalf("live=%v: %v", live, err)
			}
		}
	}
}

// TestDirtyLogForgetsPagesThatLeaveTheP2M: a page ballooned out while the
// log is armed takes its mappings with it, so the log must forget which
// ones it write-protected. Otherwise, once the slot is refilled and
// written, the fault would grant PermW to whatever those VPNs map by then:
// here a read-only alias of another page.
func TestDirtyLogForgetsPagesThatLeaveTheP2M(t *testing.T) {
	r := newVrig(t, hw.X86())
	if _, err := r.h.EnableDirtyLog(r.domU.ID); err != nil {
		t.Fatal(err)
	}
	if n, err := r.h.BalloonOut(r.domU.ID, 1); err != nil || n != 1 { // gpn 63 leaves the P2M
		t.Fatalf("BalloonOut = %d, %v", n, err)
	}
	if err := r.h.MMUUpdate(r.domU.ID, 63, 5, hw.PermR, true); err != nil {
		t.Fatal(err)
	}
	if n, err := r.h.BalloonIn(r.domU.ID, 1); err != nil || n != 1 { // refills gpn 63, armed
		t.Fatalf("BalloonIn = %d, %v", n, err)
	}
	audit(t, r.h)
	check := func(when string) {
		t.Helper()
		if e, ok := r.domU.PT.Lookup(63); !ok || e.Perms != hw.PermR {
			t.Fatalf("%s: read-only alias at VPN 63 is %v (mapped %v), want %v", when, e.Perms, ok, hw.PermR)
		}
	}
	if err := r.h.GuestMemWrite(r.domU.ID, 63, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	check("after the refilled page's fault")
	r.h.DisableDirtyLog(r.domU.ID)
	check("after disable")
}

// TestDirtyLogForgetsMappingsTheGuestReplaces: a mapping the log
// write-protected that the guest then replaces is not the log's to give
// PermW back to. Here the guest maps page 7 read-only at VPN 6, page 6's
// stripped identity mapping, and unmaps page 8's stripped alias at 0xB00
// before mapping page 9 read-only there; the faults and the disable that
// follow must leave both read-only. FuzzDirtyLog checks what such faults
// charge.
func TestDirtyLogForgetsMappingsTheGuestReplaces(t *testing.T) {
	r := newVrig(t, hw.X86())
	if err := r.h.MMUUpdate(r.domU.ID, 0xB00, 8, hw.PermRW, true); err != nil {
		t.Fatal(err)
	}
	dl, err := r.h.EnableDirtyLog(r.domU.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.h.MMUUpdate(r.domU.ID, 6, 7, hw.PermR, true); err != nil {
		t.Fatal(err)
	}
	if err := r.h.MMUUnmap(r.domU.ID, 0xB00); err != nil {
		t.Fatal(err)
	}
	if err := r.h.MMUUpdate(r.domU.ID, 0xB00, 9, hw.PermR, true); err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if dl.stripped(6, 6) || dl.stripped(8, 0xB00) || dl.nstripped(6) != 0 || dl.nstripped(8) != 1 {
		t.Fatalf("the log still records replaced mappings: gpn 6 has %d, gpn 8 has %d", dl.nstripped(6), dl.nstripped(8))
	}
	check := func(when string) {
		t.Helper()
		for _, vpn := range []hw.VPN{6, 0xB00} {
			if e, ok := r.domU.PT.Lookup(vpn); !ok || e.Perms != hw.PermR {
				t.Fatalf("%s: the guest's read-only mapping at %#x is %v (mapped %v)", when, vpn, e.Perms, ok)
			}
		}
	}
	for _, gpn := range []int{6, 8} {
		if err := r.h.GuestMemWrite(r.domU.ID, gpn, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	audit(t, r.h)
	check("after the faults")
	r.h.DisableDirtyLog(r.domU.ID)
	check("after disable")
}
