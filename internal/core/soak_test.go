package core

import (
	"testing"

	"vmmk/internal/simrand"
	"vmmk/internal/trace"
)

// TestSoakBothStacks drives a long random mixed workload — including
// mid-run component crashes — through each stack and checks global
// invariants at every step: physical frames are conserved, the virtual
// clock is monotone, the kernel survives everything, and the cycle ledger
// only grows. This is the failure-injection soak that gives the blast-
// radius results their credibility.
func TestSoakBothStacks(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	for _, build := range []func() (Platform, error){
		func() (Platform, error) { return NewMKStack(Config{Guests: 2}) },
		func() (Platform, error) { return NewXenStack(Config{Guests: 2}) },
	} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(p.Name(), func(t *testing.T) {
			r := simrand.New(0xBADC0FFEE)
			m := p.M()
			totalFrames := m.Mem.TotalFrames()
			storageDead := false
			driverDead := false
			lastNow := m.Now()
			lastCycles := m.Rec.TotalCycles()

			for step := 0; step < 400; step++ {
				guest := r.Intn(2)
				switch r.Intn(8) {
				case 0, 1, 2: // syscalls are the common case
					if err := p.DoSyscall(guest, 1, uint64(step)); err != nil {
						t.Fatalf("step %d: syscall on live guest failed: %v", step, err)
					}
				case 3:
					p.InjectPackets(1+r.Intn(3), 64+r.Intn(1400), guest)
					p.DrainRx(guest)
				case 4:
					err := p.StorageWrite(guest, r.Uint64n(32), []byte("soak"))
					if err == nil && storageDead {
						t.Fatalf("step %d: write through dead storage", step)
					}
					if err != nil && !storageDead && !driverDead {
						t.Fatalf("step %d: healthy storage failed: %v", step, err)
					}
				case 5:
					_, err := p.StorageRead(guest, r.Uint64n(32))
					if err != nil && !storageDead && !driverDead {
						t.Fatalf("step %d: healthy storage read failed: %v", step, err)
					}
				case 6:
					err := p.SendPackets(1, 64+r.Intn(512), guest)
					if err != nil && !driverDead {
						t.Fatalf("step %d: healthy network failed: %v", step, err)
					}
				case 7:
					// Rare crash injection.
					if !storageDead && r.Bool(0.03) {
						p.KillStorage()
						storageDead = true
					} else if !driverDead && r.Bool(0.01) {
						p.KillDriver()
						driverDead = true
						// On the VMM, storage persists through Dom0's
						// blkback; its writes now fail too.
						if p.Name() == "vmm" {
							storageDead = true
						}
					}
				}

				// Invariants, every step.
				if m.Mem.TotalFrames() != totalFrames {
					t.Fatalf("step %d: frame count changed", step)
				}
				if m.Now() < lastNow {
					t.Fatalf("step %d: clock went backwards", step)
				}
				lastNow = m.Now()
				if c := m.Rec.TotalCycles(); c < lastCycles {
					t.Fatalf("step %d: cycle ledger shrank", step)
				} else {
					lastCycles = c
				}
				// The kernel itself is never a casualty.
				for _, cs := range p.Alive() {
					if cs.Name == "monitor" && !cs.Alive {
						t.Fatalf("step %d: the kernel died", step)
					}
				}
			}
			// After 400 adversarial steps the guests still compute.
			if err := p.DoSyscall(0, 1, 0); err != nil {
				t.Fatalf("guest dead after soak: %v", err)
			}
			if m.Rec.Counts(trace.KFault) == 0 && (storageDead || driverDead) {
				t.Fatal("crashes not recorded in the trace")
			}
		})
	}
}
