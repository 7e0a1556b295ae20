package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/vmm"
)

// auditHosts fails the test at the first bookkeeping violation on any
// host: the hypervisor's P2M, M2P and resident counts, and the frame
// store's ledger.
func auditHosts(t *testing.T, c *Cluster, when string) {
	t.Helper()
	for _, h := range c.Hosts() {
		if err := h.Hypervisor().Audit(); err != nil {
			t.Fatalf("%s, host%d: %v", when, h.Index(), err)
		}
		if err := h.Machine().Mem.Audit(); err != nil {
			t.Fatalf("%s, host%d: %v", when, h.Index(), err)
		}
	}
}

// churnAudited runs a churn event by event, auditing every host after
// each one.
func churnAudited(t *testing.T, c *Cluster, events int, seed uint64) {
	t.Helper()
	ch := c.newChurn(seed)
	for i := 0; i < events; i++ {
		if err := ch.event(i); err != nil {
			t.Fatal(err)
		}
		auditHosts(t, c, fmt.Sprintf("after churn event %d", i))
	}
}

// small boots a 2-host cluster sized so a few guests fill it.
func small(t *testing.T, p Policy) *Cluster {
	t.Helper()
	c, err := New(Config{Hosts: 2, HostFrames: 96, Policy: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestBinPackConsolidates(t *testing.T) {
	c := small(t, BinPack)
	a, err := c.Place("a", 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Place("b", 16)
	if err != nil {
		t.Fatal(err)
	}
	// Bin-packing stacks both guests on the same host.
	if a.Host() != b.Host() {
		t.Fatalf("binpack split guests across hosts %d and %d", a.Host(), b.Host())
	}
}

func TestSpreadLevels(t *testing.T) {
	c := small(t, Spread)
	a, err := c.Place("a", 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Place("b", 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.Host() == b.Host() {
		t.Fatalf("spread stacked both guests on host %d", a.Host())
	}
}

func TestPlaceTypedErrors(t *testing.T) {
	c := small(t, BinPack)
	if _, err := c.Place("dup", 16); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place("dup", 16); !errors.Is(err, ErrAlreadyPlaced) {
		t.Fatalf("double place: err = %v, want ErrAlreadyPlaced", err)
	}
	// Larger than any host's whole capacity: rejected outright.
	if _, err := c.Place("huge", 10_000); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("oversized place: err = %v, want ErrNoHostFits", err)
	}
	if err := c.Remove("never-placed"); !errors.Is(err, ErrUnknownGuest) {
		t.Fatalf("remove unknown: err = %v, want ErrUnknownGuest", err)
	}
	s := c.Stats()
	if s.Placed != 1 || s.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 placed, 1 rejected", s)
	}
}

// TestHostTooSmallRefused: New refuses hosts of fewer frames than the
// control domain with ErrHostTooSmall, naming both sizes, before it takes
// a machine from its source; hosts of exactly the control domain's size
// boot.
func TestHostTooSmallRefused(t *testing.T) {
	taken := 0
	src := func(cfg *hw.MachineConfig) (*hw.Machine, func()) {
		taken++
		return hw.NewMachine(hw.X86(), cfg), func() {}
	}
	_, err := New(Config{Hosts: 2, HostFrames: dom0Frames - 1}, src)
	if !errors.Is(err, ErrHostTooSmall) {
		t.Fatalf("New with %d-frame hosts: err = %v, want ErrHostTooSmall", dom0Frames-1, err)
	}
	for _, n := range []int{dom0Frames - 1, dom0Frames} {
		if !strings.Contains(err.Error(), fmt.Sprint(n)) {
			t.Errorf("refusal %q does not name %d", err, n)
		}
	}
	if taken != 0 {
		t.Fatalf("the refused fleet took %d machines", taken)
	}
	c, err := New(Config{Hosts: 2, HostFrames: dom0Frames}, src)
	if err != nil {
		t.Fatalf("New with %d-frame hosts: %v", dom0Frames, err)
	}
	c.Close()
	if taken != 2 {
		t.Fatalf("a 2-host fleet took %d machines", taken)
	}
}

// TestOvercommitSqueezes pins the balloon path: admission by commitment
// can exceed physical memory, with placed guests squeezed down to make
// real frames, and removal reflating them back toward nominal.
func TestOvercommitSqueezes(t *testing.T) {
	c, err := New(Config{Hosts: 1, HostFrames: 96, Policy: BinPack}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	capacity := c.Hosts()[0].Capacity()
	first, err := c.Place("first", capacity-8)
	if err != nil {
		t.Fatal(err)
	}
	// Physically the host is nearly full, but the 150% commitment bound
	// still admits a second guest — the squeeze must find the frames.
	second, err := c.Place("second", capacity/3)
	if err != nil {
		t.Fatalf("overcommitted place failed: %v", err)
	}
	auditHosts(t, c, "after the squeeze")
	if first.Resident() >= first.Nominal {
		t.Fatalf("first guest not squeezed: resident %d of %d", first.Resident(), first.Nominal)
	}
	if second.Resident() != second.Nominal {
		t.Fatalf("new guest short: resident %d of %d", second.Resident(), second.Nominal)
	}
	if s := c.Stats(); s.Squeezed == 0 {
		t.Fatal("no pages recorded squeezed")
	}
	squeezed := first.Resident()
	if err := c.Remove("second"); err != nil {
		t.Fatal(err)
	}
	auditHosts(t, c, "after the reflate")
	if first.Resident() <= squeezed {
		t.Fatalf("first guest not reflated: resident %d, was %d", first.Resident(), squeezed)
	}
}

func TestMigrateGuestMoves(t *testing.T) {
	c := small(t, Spread)
	g, err := c.Place("mover", 16)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := c.Place("peer", 16)
	if err != nil {
		t.Fatal(err)
	}
	from, to := g.Host(), peer.Host()
	stats, err := c.MigrateGuest("mover", to)
	if err != nil {
		t.Fatal(err)
	}
	auditHosts(t, c, "after the migration")
	if stats.Downtime <= 0 {
		t.Fatal("migration reported zero downtime")
	}
	if g.Host() != to {
		t.Fatalf("guest on host %d, want %d", g.Host(), to)
	}
	dst := c.Hosts()[to]
	if !dst.Hypervisor().Alive(g.DomID()) || dst.Hypervisor().Paused(g.DomID()) {
		t.Fatal("migrated guest not running on destination")
	}
	if got := c.Hosts()[from].GuestCount(); got != 0 {
		t.Fatalf("source still tracks %d guests", got)
	}
	if _, err := c.MigrateGuest("mover", to); !errors.Is(err, ErrBadHost) {
		t.Fatalf("same-host migrate: err = %v, want ErrBadHost", err)
	}
	if _, err := c.MigrateGuest("mover", 99); !errors.Is(err, ErrBadHost) {
		t.Fatalf("out-of-range migrate: err = %v, want ErrBadHost", err)
	}
}

// TestMigrateDeadLinkLeavesHostsClean pins the abort contract at fleet
// level: a migration over a link whose budget cannot carry the guest
// aborts with the vmm sentinels and leaves both hosts exactly as they
// were — guest running at the source, nothing leaked at the destination.
func TestMigrateDeadLinkLeavesHostsClean(t *testing.T) {
	c, err := New(Config{Hosts: 2, HostFrames: 96, Policy: Spread, LinkBudget: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, err := c.Place("doomed", 16)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := c.Hosts()[g.Host()], c.Hosts()[1-g.Host()]
	dstFree := dst.Machine().Mem.FreeFrames()
	dstDoms := len(dst.Hypervisor().Domains())
	_, err = c.MigrateGuest("doomed", dst.Index())
	if !errors.Is(err, vmm.ErrMigrationAborted) || !errors.Is(err, vmm.ErrLinkDown) {
		t.Fatalf("err = %v, want ErrMigrationAborted wrapping ErrLinkDown", err)
	}
	auditHosts(t, c, "after the abort")
	if g.Host() != src.Index() {
		t.Fatal("control plane moved the guest despite the abort")
	}
	if !src.Hypervisor().Alive(g.DomID()) || src.Hypervisor().Paused(g.DomID()) {
		t.Fatal("source guest not left running")
	}
	if got := dst.Machine().Mem.FreeFrames(); got != dstFree {
		t.Fatalf("destination leaked frames: free %d, was %d", got, dstFree)
	}
	if got := len(dst.Hypervisor().Domains()); got != dstDoms {
		t.Fatalf("destination kept %d domains, was %d", got, dstDoms)
	}
	if s := c.Stats(); s.Aborted != 1 || s.Migrations != 0 {
		t.Fatalf("stats = %+v, want 1 aborted, 0 migrations", s)
	}
}

func TestChurnRuns(t *testing.T) {
	for _, p := range Policies {
		c, err := New(Config{Hosts: 4, Policy: p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		churnAudited(t, c, 64, 7)
		s := c.Stats()
		if s.Placed == 0 || s.Removed == 0 {
			t.Fatalf("%s churn did nothing: %+v", p, s)
		}
		// Books must balance: every placed guest is on exactly one host and
		// commitment sums match.
		total := 0
		for _, h := range c.Hosts() {
			total += h.GuestCount()
		}
		if total != len(c.Guests()) {
			t.Fatalf("%s: hosts track %d guests, cluster %d", p, total, len(c.Guests()))
		}
		if s.Placed-s.Removed != len(c.Guests()) {
			t.Fatalf("%s: placed %d - removed %d != %d live", p, s.Placed, s.Removed, len(c.Guests()))
		}
		c.Close()
	}
}
