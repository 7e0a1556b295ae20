package vmm

import (
	"errors"
	"testing"

	"vmmk/internal/hw"
)

// rigPages is the size of linkRig's guest: the pages a full pre-copy
// round sends.
const rigPages = 24

// linkRig boots two hypervisors with one rigPages-page guest on the source.
func linkRig(t *testing.T) (srcM, dstM *hw.Machine, src, dst *Hypervisor, dom DomID) {
	t.Helper()
	cfg := &hw.MachineConfig{Frames: 256}
	srcM = hw.NewMachine(hw.X86(), cfg)
	dstM = hw.NewMachine(hw.X86(), cfg)
	src, _, err := New(srcM, 32)
	if err != nil {
		t.Fatal(err)
	}
	dst, _, err = New(dstM, 32)
	if err != nil {
		t.Fatal(err)
	}
	d, err := src.CreateDomain("lnk", rigPages)
	if err != nil {
		t.Fatal(err)
	}
	return srcM, dstM, src, dst, d.ID
}

// TestLinkChargesBothEndpoints pins the link accounting: every transfer
// round, each pre-copy round and the blackout batch, charges Latency plus
// PerPage×pages to the LinkComponent of both machines.
func TestLinkChargesBothEndpoints(t *testing.T) {
	srcM, dstM, src, dst, dom := linkRig(t)
	l := &Link{PerPage: 3, Latency: 500}
	moved, stats, err := MigrateLive(src, dom, dst, LiveOpts{
		MaxRounds: 2,
		Transport: l.Transport(srcM, dstM),
	})
	if err != nil {
		t.Fatal(err)
	}
	audit(t, src, dst)
	if moved == nil || stats == nil {
		t.Fatal("no result from migration")
	}
	if l.Pages() == 0 || stats.Rounds == 0 {
		t.Fatalf("link carried nothing: pages=%d rounds=%d", l.Pages(), stats.Rounds)
	}
	want := uint64(l.Latency)*uint64(stats.Rounds+1) + uint64(l.PerPage)*uint64(l.Pages())
	if got := srcM.Rec.Cycles(LinkComponent); got != want {
		t.Errorf("src %s cycles = %d, want %d", LinkComponent, got, want)
	}
	if got := dstM.Rec.Cycles(LinkComponent); got != want {
		t.Errorf("dst %s cycles = %d, want %d", LinkComponent, got, want)
	}
}

// TestLinkZeroIsFree pins that the zero Link charges nothing and never
// drops.
func TestLinkZeroIsFree(t *testing.T) {
	srcM, dstM, src, dst, dom := linkRig(t)
	l := &Link{}
	if _, _, err := MigrateLive(src, dom, dst, LiveOpts{Transport: l.Transport(srcM, dstM)}); err != nil {
		t.Fatal(err)
	}
	audit(t, src, dst)
	if got := srcM.Rec.Cycles(LinkComponent); got != 0 {
		t.Fatalf("free link charged the source %d cycles", got)
	}
	if got := dstM.Rec.Cycles(LinkComponent); got != 0 {
		t.Fatalf("free link charged the destination %d cycles", got)
	}
}

// TestLinkBudgetAborts pins the failure mode: a round that would exceed the
// budget reports ErrLinkDown without crossing, so Pages stays where the
// last carried round left it, and the migration aborts cleanly (shell gone,
// source still running). The budget either cannot carry the first round,
// or the first round reaches it exactly and the page the guest dirties
// meanwhile is one over.
func TestLinkBudgetAborts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
		dirty  bool // the guest writes one page during round 1
		want   int  // pages carried before the link went down
	}{
		{"first-round-over", 4, false, 0},
		{"exact-then-one-over", rigPages, true, rigPages},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srcM, dstM, src, dst, dom := linkRig(t)
			l := &Link{Budget: tc.budget}
			opts := LiveOpts{Transport: l.Transport(srcM, dstM)}
			if tc.dirty {
				opts.GuestWork = func(round int) {
					if round == 1 {
						if err := src.GuestMemWrite(dom, 0, 0, []byte{1}); err != nil {
							t.Error(err)
						}
					}
				}
			}
			_, _, err := MigrateLive(src, dom, dst, opts)
			if !errors.Is(err, ErrMigrationAborted) || !errors.Is(err, ErrLinkDown) {
				t.Fatalf("err = %v, want ErrMigrationAborted wrapping ErrLinkDown", err)
			}
			audit(t, src, dst)
			if l.Pages() != tc.want {
				t.Fatalf("link carried %d pages, want %d (the refused round must not count)", l.Pages(), tc.want)
			}
			if !src.Alive(dom) || src.Paused(dom) {
				t.Fatal("source guest not left running after abort")
			}
			if n := len(dst.Domains()); n != 1 { // dom0 only
				t.Fatalf("destination kept %d domains, want 1", n)
			}
		})
	}
}
