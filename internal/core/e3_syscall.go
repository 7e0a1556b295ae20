package core

import (
	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/vmm"
)

// E3 reproduces the trap-gate story of §3.2: Xen's int-0x80 shortcut makes
// guest syscalls near-native, but only while every guest data segment
// excludes the monitor; one glibc-style flat TLS segment and every syscall
// takes the bounced path. The microkernel syscall (one IPC to the OS
// server) and the native trap are measured on the same hardware model for
// comparison.

// e3Spec is E3's entry in the experiment table.
var e3Spec = Spec{
	ID:     "e3",
	Title:  "guest system-call paths",
	Params: []Param{paramSyscalls},
	Run: func(r *Runner, p Params) (*Result, error) {
		rows, err := r.e3(p.Int("syscalls"))
		if err != nil {
			return nil, err
		}
		return NewResult(e3Table(rows)), nil
	},
}

// E3Row is one configuration's per-syscall cost.
type E3Row struct {
	Config       string
	CyclesPerOp  uint64
	MonitorCyc   uint64 // monitor/kernel share per op (0 = untouched)
	FastPathLive bool
}

// e3 runs the four configurations as independent cells, each on its own
// freshly booted stack and issuing n syscalls.
func (r *Runner) e3(n int) ([]E3Row, error) {
	cells := []func(*hw.MachinePool) ([]E3Row, error){
		// Native baseline.
		func(pool *hw.MachinePool) ([]E3Row, error) {
			s, err := NewNativeStack(Config{pool: pool})
			if err != nil {
				return nil, err
			}
			defer s.Close()
			t0 := s.M().Now()
			for i := 0; i < n; i++ {
				if err := s.DoSyscall(0, guestos.SysGetPID, 0); err != nil {
					return nil, err
				}
			}
			return []E3Row{{
				Config:      "native trap",
				CyclesPerOp: uint64(s.M().Now()-t0) / uint64(n),
			}}, nil
		},
		// Xen fast path: fresh stack, pristine segments.
		func(pool *hw.MachinePool) ([]E3Row, error) {
			s, err := NewXenStack(Config{FastPath: true, pool: pool})
			if err != nil {
				return nil, err
			}
			defer s.Close()
			mon0 := s.M().Rec.Cycles(vmm.HypervisorComponent)
			t0 := s.M().Now()
			for i := 0; i < n; i++ {
				if err := s.DoSyscall(0, guestos.SysGetPID, 0); err != nil {
					return nil, err
				}
			}
			return []E3Row{{
				Config:       "xen trap-gate fast path",
				CyclesPerOp:  uint64(s.M().Now()-t0) / uint64(n),
				MonitorCyc:   (s.M().Rec.Cycles(vmm.HypervisorComponent) - mon0) / uint64(n),
				FastPathLive: s.H.FastPathActive(s.Guests[0].Dom.ID),
			}}, nil
		},
		// Xen after glibc TLS: load a flat GS segment, fast path dies.
		func(pool *hw.MachinePool) ([]E3Row, error) {
			s, err := NewXenStack(Config{FastPath: true, pool: pool})
			if err != nil {
				return nil, err
			}
			defer s.Close()
			dom := s.Guests[0].Dom.ID
			if err := s.H.LoadGuestSegment(dom, hw.SegGS, hw.Segment{Base: 0, Limit: ^uint64(0), DPL: hw.Ring3}); err != nil {
				return nil, err
			}
			mon0 := s.M().Rec.Cycles(vmm.HypervisorComponent)
			t0 := s.M().Now()
			for i := 0; i < n; i++ {
				if err := s.DoSyscall(0, guestos.SysGetPID, 0); err != nil {
					return nil, err
				}
			}
			return []E3Row{{
				Config:       "xen after glibc TLS (bounced)",
				CyclesPerOp:  uint64(s.M().Now()-t0) / uint64(n),
				MonitorCyc:   (s.M().Rec.Cycles(vmm.HypervisorComponent) - mon0) / uint64(n),
				FastPathLive: s.H.FastPathActive(dom),
			}}, nil
		},
		// Microkernel: syscall as one IPC call to the OS server.
		func(pool *hw.MachinePool) ([]E3Row, error) {
			s, err := NewMKStack(Config{pool: pool})
			if err != nil {
				return nil, err
			}
			defer s.Close()
			kc0 := s.M().Rec.Cycles("mk.kernel")
			t0 := s.M().Now()
			for i := 0; i < n; i++ {
				if err := s.DoSyscall(0, guestos.SysGetPID, 0); err != nil {
					return nil, err
				}
			}
			return []E3Row{{
				Config:      "mk IPC syscall (L4Linux)",
				CyclesPerOp: uint64(s.M().Now()-t0) / uint64(n),
				MonitorCyc:  (s.M().Rec.Cycles("mk.kernel") - kc0) / uint64(n),
			}}, nil
		},
	}
	return runFuncs(r, cells)
}

// e3Table builds the registry table.
func e3Table(rows []E3Row) *ResultTable {
	t := NewResultTable(
		"E3 — guest system-call paths (paper §3.2: the shortcut is fragile)",
		Col("configuration", ""), Col("cycles/syscall", "cycles"),
		Col("monitor cyc/op", "cycles"), Col("fast path", ""),
	)
	for _, r := range rows {
		live := "-"
		if r.FastPathLive {
			live = "live"
		}
		t.AddRow(r.Config, r.CyclesPerOp, r.MonitorCyc, live)
	}
	return t
}
