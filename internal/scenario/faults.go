package scenario

import (
	"errors"
	"fmt"

	"vmmk/internal/fslite"
	"vmmk/internal/hw"
	"vmmk/internal/simrand"
	"vmmk/internal/vmm"
)

// ErrDeviceFault is what FaultDev returns from a failed block operation.
// Rows declare it as an expected outcome.
var ErrDeviceFault = errors.New("scenario: injected device fault")

// FaultDev wraps a fslite.BlockDev and injects device failures: an error on
// the Nth write or read (1-based, sticky — a died device stays dead), and
// optionally a torn write, where the failing write lands only the first
// half of its block before the error. The zero value injects nothing.
type FaultDev struct {
	Inner fslite.BlockDev
	// FailWrite fails the Nth and every later write (0: never).
	FailWrite int
	// FailRead fails the Nth and every later read (0: never).
	FailRead int
	// Torn makes the first failing write a torn one: half the block is
	// written before the fault surfaces.
	Torn bool

	writes, reads int
}

// Writes returns how many writes the device has seen (failed ones included).
func (d *FaultDev) Writes() int { return d.writes }

// Read passes through to the wrapped device unless the read-fault fires.
func (d *FaultDev) Read(block uint64) ([]byte, error) {
	d.reads++
	if d.FailRead > 0 && d.reads >= d.FailRead {
		return nil, fmt.Errorf("%w: read %d of block %d", ErrDeviceFault, d.reads, block)
	}
	return d.Inner.Read(block)
}

// Write passes through unless the write-fault fires; the first failing
// write is torn when Torn is set.
func (d *FaultDev) Write(block uint64, data []byte) error {
	d.writes++
	if d.FailWrite > 0 && d.writes >= d.FailWrite {
		if d.Torn && d.writes == d.FailWrite {
			// The first half lands, and the block reads zero past it;
			// the device then reports the failure.
			if err := d.Inner.Write(block, data[:len(data)/2]); err != nil {
				return err
			}
		}
		return fmt.Errorf("%w: write %d of block %d", ErrDeviceFault, d.writes, block)
	}
	return d.Inner.Write(block, data)
}

// KillAtRound returns a vmm.LiveOpts.GuestWork hook that destroys dom at
// the given pre-copy round — the DestroyDomain-mid-operation trigger for
// the crash-mid-migration rows.
func KillAtRound(h *vmm.Hypervisor, dom vmm.DomID, round int) func(int) {
	return func(r int) {
		if r == round {
			h.DestroyDomain(dom)
		}
	}
}

// FuzzHypercalls feeds n deterministic malformed or out-of-range hypercalls
// at the hypervisor — bogus domain ids, wild grant refs and ports, guest
// page numbers beyond the P2M, illegal pCPU placements — through victim, an
// unprivileged live domain. Every call must come back with a typed error
// (the arguments are invalid by construction) and none may panic; the first
// silent acceptance or panic is returned. The seed alone fixes the call
// sequence, so a failing run replays byte for byte.
func FuzzHypercalls(h *vmm.Hypervisor, victim vmm.DomID, n int, seed uint64) error {
	r := simrand.New(seed)
	badDom := func() vmm.DomID { return vmm.DomID(40000 + r.Intn(20000)) }
	bigGPN := func() int { return 1 << (20 + r.Intn(10)) }
	ops := []struct {
		name string
		call func() error
	}{
		{"hypercall-bad-dom", func() error {
			return h.Hypercall(badDom(), "fuzz", hw.Cycles(1+r.Intn(50)))
		}},
		{"mmu-update-wild-gpn", func() error {
			return h.MMUUpdate(victim, hw.VPN(r.Intn(1<<20)), bigGPN(), hw.PermRW, true)
		}},
		{"grant-map-wild-ref", func() error {
			return h.GrantMap(victim, victim, vmm.GrantRef(1<<20+r.Intn(1<<20)), hw.VPN(r.Intn(256)))
		}},
		{"grant-copy-wild-ref", func() error {
			return h.GrantCopy(victim, victim, vmm.GrantRef(1<<20+r.Intn(1<<20)), hw.NoFrame, 64)
		}},
		{"grant-transfer-wild-ref", func() error {
			_, err := h.GrantTransfer(victim, victim, vmm.GrantRef(1<<20+r.Intn(1<<20)))
			return err
		}},
		{"notify-wild-port", func() error {
			return h.NotifyChannel(victim, vmm.Port(1<<20+r.Intn(1<<20)))
		}},
		{"balloon-out-bad-dom", func() error {
			_, err := h.BalloonOut(badDom(), 1+r.Intn(16))
			return err
		}},
		{"place-bad-pcpu", func() error {
			return h.PlaceVCPUs(victim, hw.CPUSet(1+r.Intn(64))<<h.M.NCPUs())
		}},
		{"route-irq-unprivileged", func() error {
			return h.RouteIRQ(hw.IRQLine(1+r.Intn(8)), victim)
		}},
		{"guest-write-wild-gpn", func() error {
			return h.GuestMemWrite(victim, bigGPN(), 0, []byte{0xAA})
		}},
	}
	for i := 0; i < n; i++ {
		op := ops[r.Intn(len(ops))]
		err, panicMsg := callRecovered(op.call)
		if panicMsg != "" {
			return fmt.Errorf("fuzz op %d (%s) panicked: %s", i, op.name, panicMsg)
		}
		if err == nil {
			return fmt.Errorf("fuzz op %d (%s) accepted malformed arguments", i, op.name)
		}
	}
	return nil
}
