package hw

import (
	"strings"
	"testing"

	"vmmk/internal/trace"
)

// TestDefaultMachineSingleCPU pins the uniprocessor default: a nil config
// (and any config with NCPUs unset) builds one CPU, and the boot-CPU alias
// is that CPU — the invariant every pre-SMP code path relies on.
func TestDefaultMachineSingleCPU(t *testing.T) {
	for _, m := range []*Machine{
		NewMachine(X86(), nil),
		NewMachine(X86(), &MachineConfig{Frames: 64}),
	} {
		if m.NCPUs() != 1 {
			t.Fatalf("default machine has %d CPUs, want 1", m.NCPUs())
		}
		if m.CPU != m.CPUs[0] {
			t.Fatal("boot-CPU alias does not point at CPUs[0]")
		}
		if m.CPU.Index != 0 {
			t.Fatalf("boot CPU index = %d, want 0", m.CPU.Index)
		}
	}
}

func TestMultiCPUMachineShape(t *testing.T) {
	m := NewMachine(X86(), &MachineConfig{Frames: 64, NCPUs: 4})
	if m.NCPUs() != 4 {
		t.Fatalf("NCPUs = %d, want 4", m.NCPUs())
	}
	for i, c := range m.CPUs {
		if c.Index != i {
			t.Fatalf("CPUs[%d].Index = %d", i, c.Index)
		}
		if c.Clock != m.Clock || c.Mem != m.Mem || c.Rec != m.Rec {
			t.Fatalf("CPU %d does not share the machine substrate", i)
		}
		for j, o := range m.CPUs {
			if i != j && c.TLB == o.TLB {
				t.Fatalf("CPUs %d and %d share a TLB", i, j)
			}
		}
	}
}

// TestSendIPICharges checks the cost split of one IPI: the sender pays the
// IPI cost on cpu<from>.ipi and an event count, the target pays dispatch
// on cpu<to>.ipi, and a self-IPI is free (short-circuited).
func TestSendIPICharges(t *testing.T) {
	m := NewMachine(X86(), &MachineConfig{Frames: 64, NCPUs: 2})
	before := m.Now()

	m.SendIPI(0, 0) // self-IPI: free
	if m.Rec.Counts(trace.KIPI) != 0 || m.Now() != before {
		t.Fatal("self-IPI charged something")
	}

	m.SendIPI(0, 1)
	if got := m.Rec.Counts(trace.KIPI); got != 1 {
		t.Fatalf("KIPI count = %d, want 1", got)
	}
	if got := m.Rec.Cycles("cpu0.ipi"); got != uint64(m.Arch.Costs.IPI) {
		t.Fatalf("sender charged %d, want %d", got, m.Arch.Costs.IPI)
	}
	if got := m.Rec.Cycles("cpu1.ipi"); got != uint64(m.Arch.Costs.IRQDispatch) {
		t.Fatalf("target charged %d, want %d", got, m.Arch.Costs.IRQDispatch)
	}
	wantClock := before + m.Arch.Costs.IPI + m.Arch.Costs.IRQDispatch
	if m.Now() != wantClock {
		t.Fatalf("clock = %d, want %d", m.Now(), wantClock)
	}
}

func TestSendIPIPanicsOnBadCPU(t *testing.T) {
	m := NewMachine(X86(), &MachineConfig{Frames: 64, NCPUs: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("SendIPI to a nonexistent CPU did not panic")
		}
	}()
	m.SendIPI(0, 5)
}

// TestShootdownAllFlushesTargets: a full shootdown flushes exactly the
// target CPUs' TLBs (not the initiator's), counts one KTLBShootdown per
// target, and charges each target's cpu<n>.shootdown component.
func TestShootdownAllFlushesTargets(t *testing.T) {
	m := NewMachine(X86(), &MachineConfig{Frames: 64, NCPUs: 3})
	pte := PTE{Frame: 1, Perms: PermRW}
	for _, c := range m.CPUs {
		c.TLB.Insert(7, 0x40, pte)
	}

	m.ShootdownAll(0, m.AllCPUs()) // the initiator is in the set
	if m.CPUs[0].TLB.Len() != 1 {
		t.Fatal("initiator's TLB was flushed; shootdown is remote-only")
	}
	for i := 1; i < 3; i++ {
		if m.CPUs[i].TLB.Len() != 0 {
			t.Fatalf("CPU %d TLB survived the shootdown", i)
		}
	}
	if got := m.Rec.Counts(trace.KTLBShootdown); got != 2 {
		t.Fatalf("KTLBShootdown count = %d, want 2", got)
	}
	if got := m.Rec.Counts(trace.KIPI); got != 2 {
		t.Fatalf("shootdown IPIs = %d, want 2", got)
	}
	for i := 1; i < 3; i++ {
		name := []string{"", "cpu1.shootdown", "cpu2.shootdown"}[i]
		if got := m.Rec.Cycles(name); got != uint64(m.Arch.Costs.TLBShootdown) {
			t.Fatalf("%s charged %d, want %d", name, got, m.Arch.Costs.TLBShootdown)
		}
	}
}

// TestShootdownEntryIsTargeted: a targeted shootdown removes only the
// named translation on the targets.
func TestShootdownEntryIsTargeted(t *testing.T) {
	m := NewMachine(X86(), &MachineConfig{Frames: 64, NCPUs: 2})
	pte := PTE{Frame: 1, Perms: PermRW}
	m.CPUs[1].TLB.Insert(7, 0x40, pte)
	m.CPUs[1].TLB.Insert(7, 0x41, pte)

	m.ShootdownEntries(0, 1<<1, 7, []VPN{0x40})
	if _, ok := m.CPUs[1].TLB.Lookup(7, 0x40); ok {
		t.Fatal("shot-down entry survived")
	}
	if _, ok := m.CPUs[1].TLB.Lookup(7, 0x41); !ok {
		t.Fatal("unrelated entry was flushed")
	}
	if got := m.Rec.Counts(trace.KTLBShootdown); got != 1 {
		t.Fatalf("KTLBShootdown count = %d, want 1", got)
	}
}

// TestMachineHoldsAtMostMaxCPUs: a CPUSet has one bit per CPU, so a
// machine with more CPUs than the word has bits cannot be built.
func TestMachineHoldsAtMostMaxCPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a machine with MaxCPUs+1 CPUs was built")
		}
	}()
	NewMachine(X86(), &MachineConfig{Frames: 16, NCPUs: MaxCPUs + 1})
}

// TestShootdownReachesTheTopCPU: on a machine with MaxCPUs CPUs, a
// shootdown of every CPU interrupts all but the initiator, the CPU on the
// word's top bit included.
func TestShootdownReachesTheTopCPU(t *testing.T) {
	m := NewMachine(X86(), &MachineConfig{Frames: 16, NCPUs: MaxCPUs})
	pte := PTE{Frame: 1, Perms: PermRW}
	for _, c := range m.CPUs {
		c.TLB.Insert(7, 0x40, pte)
	}
	m.ShootdownAll(0, m.AllCPUs())
	if got := m.Rec.Counts(trace.KTLBShootdown); got != MaxCPUs-1 {
		t.Fatalf("KTLBShootdown count = %d, want %d", got, MaxCPUs-1)
	}
	if m.CPUs[0].TLB.Len() != 1 {
		t.Fatal("initiator's TLB was flushed; shootdown is remote-only")
	}
	for i, c := range m.CPUs[1:] {
		if c.TLB.Len() != 0 {
			t.Fatalf("CPU %d TLB survived the shootdown", i+1)
		}
	}
}

// TestShootdownOfAMissingCPUPanicsFirst: a set that names a CPU the
// machine lacks panics before any IPI is sent, even to the CPUs it names
// that exist, on both shootdown paths.
func TestShootdownOfAMissingCPUPanicsFirst(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shoot func(*Machine, CPUSet)
	}{
		{"ShootdownAll", func(m *Machine, s CPUSet) { m.ShootdownAll(0, s) }},
		{"ShootdownEntries", func(m *Machine, s CPUSet) { m.ShootdownEntries(0, s, 7, []VPN{0x40}) }},
	} {
		m := NewMachine(X86(), &MachineConfig{Frames: 16, NCPUs: 3})
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "CPU index out of range") {
					t.Errorf("%s: panic %q, want CPU index out of range", tc.name, r)
				}
			}()
			tc.shoot(m, 1<<1|1<<5)
		}()
		if got := m.Rec.Counts(trace.KIPI); got != 0 {
			t.Errorf("%s: %d IPIs counted before the panic", tc.name, got)
		}
	}
}

// TestUniprocessorInternsButNeverCharges: a full uniprocessor workout
// leaves the SMP components at zero — the accounting-level guarantee that
// E1–E11 are untouched. A 1-CPU machine does not even intern their names,
// which only a multiprocessor charges; a 2-CPU machine does.
func TestUniprocessorInternsButNeverCharges(t *testing.T) {
	m := NewMachine(X86(), &MachineConfig{Frames: 64})
	if _, ok := m.Rec.Registry().Lookup("cpu0.ipi"); ok {
		t.Fatal("a uniprocessor interned cpu0.ipi")
	}
	if _, ok := NewMachine(X86(), &MachineConfig{Frames: 64, NCPUs: 2}).Rec.Registry().Lookup("cpu0.ipi"); !ok {
		t.Fatal("a 2-CPU machine did not intern cpu0.ipi")
	}
	comp := m.Rec.Intern("test.kern")
	m.CPU.Trap(comp, false)
	m.CPU.FlushTLB(comp)
	m.CPU.ReturnTo(comp, Ring3)
	if got := m.Rec.CyclesPrefix("cpu"); got != 0 {
		t.Fatalf("uniprocessor charged %d SMP cycles", got)
	}
	if m.Rec.Counts(trace.KIPI) != 0 || m.Rec.Counts(trace.KTLBShootdown) != 0 {
		t.Fatal("uniprocessor counted SMP events")
	}
}
