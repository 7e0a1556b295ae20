package core

import (
	"testing"

	"vmmk/internal/hw/dev"
)

// bootIOStack boots the named stack as the vmmkbench io workload does and
// returns it with its NIC.
func bootIOStack(t testing.TB, name string) (Platform, *dev.NIC) {
	t.Helper()
	var (
		p   Platform
		nic *dev.NIC
		err error
	)
	switch name {
	case "vmm":
		var s *XenStack
		s, err = NewXenStack(Config{})
		p, nic = s, s.NIC
	case "mk":
		var s *MKStack
		s, err = NewMKStack(Config{})
		p, nic = s, s.NIC
	default:
		var s *NativeStack
		s, err = NewNativeStack(Config{})
		p, nic = s, s.NIC
	}
	if err != nil {
		t.Fatal(err)
	}
	return p, nic
}

// TestStackIOAllocates is the allocation gate of the io data path: each
// request kind, issued on a warm stack the way the vmmkbench io workload
// issues it (4×1500 B bursts, page-sized block writes over blocks already
// written once), allocates nothing. That holds for native rx too, although
// its RX handler leaks every receive frame: the burst's packets are zeros,
// so each lands in a fresh frame without storing a byte.
func TestStackIOAllocates(t *testing.T) {
	const (
		burst  = 4
		packet = 1500
		blocks = 8
	)
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i) | 1
	}
	kinds := []struct {
		name string
		op   func(t *testing.T, p Platform, nic *dev.NIC, i int)
	}{
		{"rx", func(t *testing.T, p Platform, _ *dev.NIC, _ int) {
			p.InjectPackets(burst, packet, 0)
			if n := p.DrainRx(0); n != burst {
				t.Fatalf("drained %d packets, injected %d", n, burst)
			}
		}},
		{"tx", func(t *testing.T, p Platform, nic *dev.NIC, _ int) {
			if err := p.SendPackets(burst, packet, 0); err != nil {
				t.Fatal(err)
			}
			if wire := nic.Transmitted(); len(wire) != burst || len(wire[0].Data) != packet {
				t.Fatalf("wire saw %d packets, sent %d", len(wire), burst)
			}
		}},
		{"syscall", func(t *testing.T, p Platform, _ *dev.NIC, _ int) {
			if err := p.DoSyscall(0, 1, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"blk_write", func(t *testing.T, p Platform, _ *dev.NIC, i int) {
			if err := p.StorageWrite(0, uint64(i%blocks), page); err != nil {
				t.Fatal(err)
			}
		}},
		{"blk_read", func(t *testing.T, p Platform, _ *dev.NIC, i int) {
			if _, err := p.StorageRead(0, uint64(i%blocks)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, stack := range []string{"vmm", "mk", "native"} {
		for _, kind := range kinds {
			t.Run(stack+"/"+kind.name, func(t *testing.T) {
				p, nic := bootIOStack(t, stack)
				defer p.Close()
				// Warm-up: one request of every kind, and a first write of
				// every block the measured requests touch.
				for i := range blocks {
					if err := p.StorageWrite(0, uint64(i), page); err != nil {
						t.Fatal(err)
					}
				}
				for _, k := range kinds {
					k.op(t, p, nic, 0)
				}
				i := 0
				got := testing.AllocsPerRun(100, func() {
					kind.op(t, p, nic, i)
					i++
				})
				if got != 0 {
					t.Errorf("%s %s allocates %.0f times per request, want 0", stack, kind.name, got)
				}
			})
		}
	}
}
