package core

import (
	"bytes"
	"fmt"
	"testing"

	"vmmk/internal/hw/dev"
)

// bootIOStack boots the named stack on an ncpus-CPU machine as the
// vmmkbench io workload does (it runs 1 CPU) and returns it with its NIC
// and disk.
func bootIOStack(t testing.TB, name string, ncpus int) (Platform, *dev.NIC, *dev.Disk) {
	t.Helper()
	var (
		p    Platform
		body *stack
		err  error
	)
	cfg := Config{NCPUs: ncpus}
	switch name {
	case "vmm":
		var s *XenStack
		s, err = NewXenStack(cfg)
		p, body = s, &s.stack
	case "mk":
		var s *MKStack
		s, err = NewMKStack(cfg)
		p, body = s, &s.stack
	default:
		var s *NativeStack
		s, err = NewNativeStack(cfg)
		p, body = s, &s.stack
	}
	if err != nil {
		t.Fatal(err)
	}
	return p, body.NIC, body.Disk
}

// TestNativeDiskReapsCompletions: the native stack's in-kernel disk driver
// reaps every completion it is interrupted for, so a long run of requests
// leaves none queued on the disk, and a read returns what the disk DMA'd
// into the request's frame.
func TestNativeDiskReapsCompletions(t *testing.T) {
	s, err := NewNativeStack(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writes = 1000
	for i := range writes {
		if err := s.StorageWrite(0, uint64(i%256), []byte{byte(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Disk.Reap()); n != 0 {
		t.Fatalf("%d disk completions left unreaped after %d writes", n, writes)
	}
	last := writes - 1
	got, err := s.StorageRead(0, uint64(last%256))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, s.Mach.Mem.PageSize())
	want[0], want[1] = byte(last), 1
	if !bytes.Equal(got, want) {
		t.Fatalf("block %d reads %x…, want %x and zeros", last%256, got[:4], want[:2])
	}
	if n := len(s.Disk.Reap()); n != 0 {
		t.Fatalf("%d disk completions left unreaped after a read", n)
	}
}

// TestStackIOAllocates is the allocation gate of the io data path: each
// request kind, issued on a warm stack the way the vmmkbench io workload
// issues it (4×1500 B bursts, page-sized block writes over blocks already
// written once), allocates nothing: on 1 CPU, as the io workload runs,
// and on 4, where requests also pay the IPIs and shootdowns of E12's
// driver-io cells. That holds for native rx too, although its RX handler
// leaks every receive frame: the burst's packets are zeros, so each lands
// in a fresh frame without storing a byte. AllocsPerRun
// rounds down to whole allocations per run, so a queue that grows by
// amortized appends reads 0; each stack must therefore also have reaped
// every disk completion once its requests return.
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
				for _, ncpus := range []int{1, 4} {
					t.Run(fmt.Sprintf("cpus=%d", ncpus), func(t *testing.T) {
						p, nic, disk := bootIOStack(t, stack, ncpus)
						defer p.Close()
						// Warm-up: one request of every kind, and a first
						// write of every block the measured requests touch.
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
							t.Errorf("%s %s on %d CPUs allocates %.0f times per request, want 0", stack, kind.name, ncpus, got)
						}
						if n := len(disk.Reap()); n != 0 {
							t.Errorf("%s %s on %d CPUs left %d disk completions unreaped", stack, kind.name, ncpus, n)
						}
					})
				}
			})
		}
	}
}
