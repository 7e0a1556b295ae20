package core

import (
	"strconv"
	"strings"

	"vmmk/internal/guestos"
	"vmmk/internal/hw"
)

// E6 tests the portability claim of §2.2: "software that is written for an
// L4 microkernel naturally runs on nine different processor platforms",
// whereas "software developed for one VMM is inherently unportable across
// architectures" because the VMM interface is the architecture.
//
// Method: boot the identical mk personality (OS server, drivers, store) on
// all nine hw.Arch descriptors and run a probe workload — zero source
// changes, by construction, verified by it actually working. For the VMM
// side, count the raw-interface properties a guest must be rewritten
// against when moving from the x86 baseline to each architecture.

// e6Spec is E6's entry in the experiment table.
var e6Spec = Spec{
	ID:    "e6",
	Title: "nine-architecture portability",
	Run: func(r *Runner, _ Params) (*Result, error) {
		rows, err := r.e6()
		if err != nil {
			return nil, err
		}
		return NewResult(e6Table(rows)), nil
	},
}

// E6Row is one architecture's result.
type E6Row struct {
	Arch          string
	MKRuns        bool // identical component binary "runs"
	MKChanges     int  // source changes needed (always 0 if MKRuns)
	VMMDeltas     int  // raw-interface differences vs x86 guest
	VMMDeltaNames []string
}

// vmmInterfaceDeltas counts the guest-visible interface properties that
// differ between two architectures' "raw hardware" views — each one a
// porting work item for a paravirtualised guest.
func vmmInterfaceDeltas(base, a *hw.Arch) []string {
	var deltas []string
	if base.SyscallInstr != a.SyscallInstr {
		deltas = append(deltas, "trap mechanism ("+a.SyscallInstr+")")
	}
	if base.PTLevels != a.PTLevels {
		deltas = append(deltas, "paging interface ("+strconv.Itoa(a.PTLevels)+"-level)")
	}
	if base.HasSegmentation != a.HasSegmentation {
		deltas = append(deltas, "segmentation/protection model")
	}
	if base.PageShift != a.PageShift {
		deltas = append(deltas, "page size")
	}
	if base.WordBits != a.WordBits {
		deltas = append(deltas, "word width")
	}
	if base.BigEndian != a.BigEndian {
		deltas = append(deltas, "endianness")
	}
	if base.HasASID != a.HasASID {
		deltas = append(deltas, "TLB management")
	}
	return deltas
}

// e6 boots each architecture in its own cell.
func (r *Runner) e6() ([]E6Row, error) {
	base := x86
	archs := hw.AllArchs()
	return RunCells(r, len(archs), func(pool *hw.MachinePool, i int) (E6Row, error) {
		arch := archs[i]
		row := E6Row{Arch: arch.Name}
		s, err := NewMKStack(Config{Arch: arch, pool: pool})
		if err != nil {
			return E6Row{}, err
		}
		defer s.Close()
		// The probe: a syscall, a packet, a storage op — the whole
		// personality, unchanged.
		probeOK := s.DoSyscall(0, guestos.SysGetPID, 0) == nil
		s.InjectPackets(1, 128, 0)
		probeOK = probeOK && s.DrainRx(0) == 1
		probeOK = probeOK && s.StorageWrite(0, 0, []byte("p")) == nil
		row.MKRuns = probeOK
		if !probeOK {
			row.MKChanges = -1 // signals a model bug; tests assert it never happens
		}
		row.VMMDeltaNames = vmmInterfaceDeltas(base, arch)
		row.VMMDeltas = len(row.VMMDeltaNames)
		return row, nil
	})
}

// e6Table builds the registry table.
func e6Table(rows []E6Row) *ResultTable {
	t := NewResultTable(
		"E6 — portability: identical mk personality across 9 architectures vs VMM interface deltas (paper §2.2)",
		Col("arch", ""), Col("mk component", ""), Col("changes", "changes"),
		Col("vmm port items", "items"), Col("which", ""),
	)
	for _, r := range rows {
		status := "runs unchanged"
		if !r.MKRuns {
			status = "FAILED"
		}
		t.AddRow(r.Arch, status, r.MKChanges, r.VMMDeltas, strings.Join(r.VMMDeltaNames, ", "))
	}
	return t
}
