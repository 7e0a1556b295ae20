package core

import (
	"strings"

	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// E5 is the primitive census of §2.2: run an identical composite workload
// on both systems and count the distinct privileged primitives each
// exercises. The paper enumerates one extensibility primitive for the
// microkernel (IPC, with its transfer facets) against ten for the VMM,
// "each requiring a dedicated set of security mechanisms, resources, and
// kernel code".

// e5Spec is E5's entry in the experiment table.
var e5Spec = Spec{
	ID:    "e5",
	Title: "privileged-primitive census",
	Run: func(r *Runner, _ Params) (*Result, error) {
		rows, err := r.e5()
		if err != nil {
			return nil, err
		}
		return NewResult(e5Table(rows)), nil
	},
}

// E5Row is one platform's census.
type E5Row struct {
	Platform   string
	Count      int
	Primitives []string
	Mechanisms int // distinct security mechanisms backing those primitives
}

// securityMechanisms maps each primitive to the validation machinery the
// kernel must implement and get right for it — the "dedicated set of
// security mechanisms" of §2.2. The microkernel's facets share one set
// (partner validation + rights + the mapping database); each VMM primitive
// brings its own.
var securityMechanisms = map[trace.Kind][]string{
	// mk: every facet rides the same three checks.
	trace.KIPCSend:           {"partner-validation", "ipc-rights", "mapdb"},
	trace.KIPCCall:           {"partner-validation", "ipc-rights", "mapdb"},
	trace.KIPCMapTransfer:    {"partner-validation", "ipc-rights", "mapdb"},
	trace.KIPCStringTransfer: {"partner-validation", "ipc-rights", "mapdb"},
	trace.KPagerFault:        {"partner-validation", "ipc-rights", "mapdb"},
	// vmm: one mechanism set per primitive.
	trace.KGuestUserToKernel: {"ring-transition-check"},
	trace.KGuestKernelToUser: {"iret-validation"},
	trace.KEvtchnSend:        {"port-binding-table"},
	trace.KHypercall:         {"hypercall-dispatch-validation"},
	trace.KShadowPTUpdate:    {"pte-ownership-validation"},
	trace.KPageFlip:          {"grant-table", "p2m-accounting", "tlb-shootdown"},
	trace.KExceptionBounce:   {"exception-reflection-state"},
	trace.KVirtIRQ:           {"virq-routing-table"},
	trace.KHardIRQInject:     {"irq-ownership-check"},
	trace.KVirtDeviceOp:      {"device-model-acl"},
	trace.KGrantMap:          {"grant-table"},
	trace.KGrantCopy:         {"grant-table", "buffer-ownership-check"},
	trace.KSyscallFastPath:   {"segment-exclusion-check"},
}

// distinctMechanisms returns the size of the union of mechanisms behind a
// set of exercised primitives.
func distinctMechanisms(kinds []trace.Kind) int {
	set := map[string]bool{}
	for _, k := range kinds {
		for _, m := range securityMechanisms[k] {
			set[m] = true
		}
	}
	return len(set)
}

// censusWorkload exercises every subsystem: syscalls, net RX/TX, storage,
// and a page fault (on mk).
func censusWorkload(p Platform) error {
	for i := 0; i < 5; i++ {
		if err := p.DoSyscall(0, guestos.SysGetPID, 0); err != nil {
			return err
		}
	}
	p.InjectPackets(5, 256, 0)
	p.DrainRx(0)
	if err := p.SendPackets(2, 256, 0); err != nil {
		return err
	}
	if err := p.StorageWrite(0, 1, []byte("census")); err != nil {
		return err
	}
	if _, err := p.StorageRead(0, 1); err != nil {
		return err
	}
	return nil
}

// e5 runs the two platform censuses as independent cells.
func (r *Runner) e5() ([]E5Row, error) {
	cells := []func(*hw.MachinePool) ([]E5Row, error){
		// Microkernel.
		func(pool *hw.MachinePool) ([]E5Row, error) {
			s, err := NewMKStack(Config{pool: pool})
			if err != nil {
				return nil, err
			}
			defer s.Close()
			if err := censusWorkload(s); err != nil {
				return nil, err
			}
			// Also provoke a page fault so the pager facet shows up.
			if _, err := s.K.Touch(s.Guests[0].Proc(s.Procs[0]).Thread.ID, 0x123, 2); err != nil {
				return nil, err
			}
			kinds := s.M().Rec.DistinctPrimitives(trace.Snapshot{}, "mk")
			return []E5Row{{
				Platform:   "mk",
				Count:      len(kinds),
				Primitives: kindNames(kinds),
				Mechanisms: distinctMechanisms(kinds),
			}}, nil
		},
		// VMM.
		func(pool *hw.MachinePool) ([]E5Row, error) {
			s, err := NewXenStack(Config{FastPath: true, pool: pool})
			if err != nil {
				return nil, err
			}
			defer s.Close()
			if err := censusWorkload(s); err != nil {
				return nil, err
			}
			// Provoke an exception bounce so primitive 7 shows up even with
			// the syscall fast path live.
			if _, err := s.H.GuestException(s.Guests[0].Dom.ID, func() {}); err != nil {
				return nil, err
			}
			// Monitor-provided virtual device (primitive 10): console write.
			if err := s.H.VirtDeviceOp(s.Guests[0].Dom.ID, 20); err != nil {
				return nil, err
			}
			kinds := s.M().Rec.DistinctPrimitives(trace.Snapshot{}, "vmm")
			return []E5Row{{
				Platform:   "vmm",
				Count:      len(kinds),
				Primitives: kindNames(kinds),
				Mechanisms: distinctMechanisms(kinds),
			}}, nil
		},
	}
	return runFuncs(r, cells)
}

func kindNames(kinds []trace.Kind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

// e5Table builds the registry table.
func e5Table(rows []E5Row) *ResultTable {
	t := NewResultTable(
		"E5 — distinct privileged primitives exercised by the same workload (paper §2.2)",
		Col("platform", ""), Col("count", "primitives"),
		Col("security mechanisms", "mechanisms"), Col("primitives", ""),
	)
	for _, r := range rows {
		t.AddRow(r.Platform, r.Count, r.Mechanisms, strings.Join(r.Primitives, " "))
	}
	return t
}
