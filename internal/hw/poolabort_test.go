// Package hw_test holds the pool differential that needs the layers above
// hw: an aborted live migration leaves hypervisor state (dirty-log write
// protection, a half-filled destination shell, domain ledgers) on both
// machines, and the pool's Reset must scrub all of it. The test lives in an
// external test package because hw cannot import vmm.
package hw_test

import (
	"errors"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// observe captures the machine state an experiment cell could see — the
// external-package twin of pool_test.go's fingerprint.
type observed struct {
	now     hw.Cycles
	free    int
	total   uint64
	pending int
	traps   uint64
}

func observe(m *hw.Machine) observed {
	return observed{
		now:     m.Now(),
		free:    m.Mem.FreeFrames(),
		total:   m.Rec.TotalCycles(),
		pending: m.Events.Pending(),
		traps:   m.Rec.Counts(trace.KTrap),
	}
}

// TestPoolCleanAfterAbortedMigration aborts a live migration mid-copy on
// pooled machines — on the source via a failing link, on a second pair via
// the guest dying between rounds — then recycles both machines and checks
// them against fresh boots.
func TestPoolCleanAfterAbortedMigration(t *testing.T) {
	cfg := &hw.MachineConfig{Frames: 1024}
	linkDown := errors.New("link down")

	abortOnce := func(t *testing.T, opts vmm.LiveOpts, wire func(h *vmm.Hypervisor, d vmm.DomID, o *vmm.LiveOpts)) {
		t.Helper()
		p := hw.NewMachinePool()
		srcM := p.Get(hw.X86(), cfg)
		dstM := p.Get(hw.X86(), cfg)
		src, _, err := vmm.New(srcM, 128)
		if err != nil {
			t.Fatal(err)
		}
		dst, _, err := vmm.New(dstM, 128)
		if err != nil {
			t.Fatal(err)
		}
		d, err := src.CreateDomain("guest", 48)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.GuestMemWrite(d.ID, 0, 0, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if wire != nil {
			wire(src, d.ID, &opts)
		}
		if _, _, err := vmm.MigrateLive(src, d.ID, dst, opts); !errors.Is(err, vmm.ErrMigrationAborted) {
			t.Fatalf("migration returned %v, want ErrMigrationAborted", err)
		}
		for _, m := range []*hw.Machine{srcM, dstM} {
			if err := m.Mem.Audit(); err != nil {
				t.Errorf("after the abort: %v", err)
			}
		}

		// Recycle both machines; the pool is LIFO, so dstM comes back
		// first. Each must be indistinguishable from a fresh boot.
		p.Put(srcM)
		p.Put(dstM)
		for _, m := range []*hw.Machine{p.Get(hw.X86(), cfg), p.Get(hw.X86(), cfg)} {
			fresh := hw.NewMachine(hw.X86(), cfg)
			if got, want := observe(m), observe(fresh); got != want {
				t.Errorf("recycled machine %+v, fresh machine %+v", got, want)
			}
			if err := m.Mem.Audit(); err != nil {
				t.Errorf("recycled machine: %v", err)
			}
		}
	}

	t.Run("link-failure", func(t *testing.T) {
		abortOnce(t, vmm.LiveOpts{
			// Pre-copy rounds succeed; the link dies on the blackout
			// batch (round 0), after the source is already paused.
			Transport: func(round, pages int) error {
				if round == 0 {
					return linkDown
				}
				return nil
			},
		}, nil)
	})

	t.Run("source-dies-midcopy", func(t *testing.T) {
		abortOnce(t, vmm.LiveOpts{}, func(h *vmm.Hypervisor, d vmm.DomID, o *vmm.LiveOpts) {
			o.GuestWork = func(round int) {
				if round == 1 {
					h.DestroyDomain(d)
				}
			}
		})
	})
}
