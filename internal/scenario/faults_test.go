package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vmmk/internal/core"
	"vmmk/internal/fslite"
	"vmmk/internal/hw"
	"vmmk/internal/vmm"
)

// TestFaultDevNthWriteSticky: the write fault fires on exactly the Nth
// write and every write after it — a died device stays dead.
func TestFaultDevNthWriteSticky(t *testing.T) {
	fd := &FaultDev{Inner: fslite.NewMemDev(64), FailWrite: 3}
	data := bytes.Repeat([]byte{0xAB}, 64)
	for i := 1; i <= 2; i++ {
		if err := fd.Write(uint64(i), data); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	for i := 3; i <= 5; i++ {
		if err := fd.Write(uint64(i), data); !errors.Is(err, ErrDeviceFault) {
			t.Fatalf("write %d: got %v, want ErrDeviceFault", i, err)
		}
	}
	if got := fd.Writes(); got != 5 {
		t.Errorf("Writes() = %d, want 5 (failed writes count)", got)
	}
	// Blocks 1 and 2 landed; block 3 must not have (non-torn failure).
	got, err := fd.Inner.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Error("failed write landed data on the inner device")
	}
}

// TestFaultDevTorn: the first failing write lands exactly half the block
// before the error surfaces; later failing writes land nothing.
func TestFaultDevTorn(t *testing.T) {
	fd := &FaultDev{Inner: fslite.NewMemDev(64), FailWrite: 1, Torn: true}
	data := bytes.Repeat([]byte{0xCD}, 64)
	if err := fd.Write(7, data); !errors.Is(err, ErrDeviceFault) {
		t.Fatalf("got %v, want ErrDeviceFault", err)
	}
	got, err := fd.Inner.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 64)
	copy(want, data[:32])
	if !bytes.Equal(got, want) {
		t.Errorf("torn block = %x..., want first half written, second half zero", got[:4])
	}
	// The tear is one-shot: the second failing write leaves its block alone.
	if err := fd.Write(8, data); !errors.Is(err, ErrDeviceFault) {
		t.Fatalf("got %v, want ErrDeviceFault", err)
	}
	got, err = fd.Inner.Read(8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Error("second failing write landed data; only the first should tear")
	}
}

// TestFaultDevRead: the read fault mirrors the write fault — Nth and sticky.
func TestFaultDevRead(t *testing.T) {
	fd := &FaultDev{Inner: fslite.NewMemDev(64), FailRead: 2}
	if _, err := fd.Read(0); err != nil {
		t.Fatalf("read 1 failed early: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := fd.Read(0); !errors.Is(err, ErrDeviceFault) {
			t.Fatalf("got %v, want ErrDeviceFault", err)
		}
	}
}

// TestFaultDevZeroValueTransparent: the zero thresholds inject nothing —
// the disarmed leg of every fslite row runs through an idle FaultDev.
func TestFaultDevZeroValueTransparent(t *testing.T) {
	fd := &FaultDev{Inner: fslite.NewMemDev(64)}
	data := bytes.Repeat([]byte{0x11}, 64)
	for i := 0; i < 100; i++ {
		if err := fd.Write(uint64(i), data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := fd.Read(uint64(i)); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

// TestBlockDevsCopyWrites holds every fslite.BlockDev in the tree to the
// half of the device contract the filesystem leans on: Write must not keep
// the caller's buffer. Each device writes a block, the caller overwrites
// its buffer, and the block must still read back as written.
func TestBlockDevsCopyWrites(t *testing.T) {
	xen, err := core.NewXenStack(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mks, err := core.NewMKStack(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	osrv := mks.Guests[0]
	for _, tc := range []struct {
		name string
		dev  fslite.BlockDev
		bs   uint64
	}{
		{"MemDev", fslite.NewMemDev(512), 512},
		{"FaultDev", &FaultDev{Inner: fslite.NewMemDev(512)}, 512},
		{"BlkFront", xen.Guests[0].Blk, xen.M().Mem.PageSize()},
		{"StoreServer", osrv.Blk, mks.M().Mem.PageSize()},
		{"BlkClient", mks.Blk.NewBlkClient(osrv.Thread.ID, 8), mks.M().Mem.PageSize()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := make([]byte, tc.bs)
			for i := range buf {
				buf[i] = byte(i*13 + 1)
			}
			want := bytes.Clone(buf)
			if err := tc.dev.Write(3, buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 0xEE
			}
			got, err := tc.dev.Read(3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("block 3 reads back %d bytes that differ from the %d written: the device kept the caller's buffer", len(got), len(want))
			}
		})
	}
}

// TestBlockDevsRefuseLongWrites holds each block device a stack hands out
// (blkfront, and the mk block client on the store server and on the disk
// driver) to its one-page block: a longer write is refused with
// fslite.ErrBlockTooLong before it charges a cycle, and the block still
// reads back the page written before it.
func TestBlockDevsRefuseLongWrites(t *testing.T) {
	xen, err := core.NewXenStack(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mks, err := core.NewMKStack(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	osrv := mks.Guests[0]
	for _, tc := range []struct {
		name string
		dev  fslite.BlockDev
		m    *hw.Machine
	}{
		{"BlkFront", xen.Guests[0].Blk, xen.M()},
		{"StoreServer", osrv.Blk, mks.M()},
		{"BlkClient", mks.Blk.NewBlkClient(osrv.Thread.ID, 8), mks.M()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			page := make([]byte, tc.m.Mem.PageSize())
			for i := range page {
				page[i] = byte(i*13 + 1)
			}
			if err := tc.dev.Write(3, page); err != nil {
				t.Fatal(err)
			}
			before := tc.m.Now()
			if err := tc.dev.Write(3, bytes.Repeat([]byte{0xEE}, len(page)+1)); !errors.Is(err, fslite.ErrBlockTooLong) {
				t.Errorf("write of a page and a byte: err = %v, want fslite.ErrBlockTooLong", err)
			}
			if d := tc.m.Now() - before; d != 0 {
				t.Errorf("the refused write charged %d cycles", d)
			}
			got, err := tc.dev.Read(3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, page) {
				t.Error("block 3 no longer reads the page written before the refused write")
			}
		})
	}
}

// TestFuzzHypercallsRejectsAll: against a healthy hypervisor, every
// malformed call in a long deterministic stream must come back with a typed
// error — no panics, no silent acceptance — and the victim domain survives.
func TestFuzzHypercallsRejectsAll(t *testing.T) {
	m := hw.NewMachine(hw.X86(), DefaultConfig)
	h, _, err := vmm.New(m, 128)
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.CreateDomain("victim", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := FuzzHypercalls(h, d.ID, 2000, 0xC0FFEE); err != nil {
		t.Fatal(err)
	}
	if !h.Alive(d.ID) {
		t.Error("victim domain died under the fuzz stream")
	}
}

// TestFuzzHypercallsDeadVictim: with the victim destroyed, every fuzz op
// must still come back with a typed error (dead-domain or bad-argument) —
// the stream completes clean rather than panicking on the corpse.
func TestFuzzHypercallsDeadVictim(t *testing.T) {
	m := hw.NewMachine(hw.X86(), DefaultConfig)
	h, _, err := vmm.New(m, 128)
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.CreateDomain("victim", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyDomain(d.ID); err != nil {
		t.Fatal(err)
	}
	// Against a destroyed victim every op still returns a typed error
	// (dead-domain or bad-argument), so the stream must complete clean.
	if err := FuzzHypercalls(h, d.ID, 500, 7); err != nil {
		if !strings.Contains(err.Error(), "fuzz op") {
			t.Fatalf("unexpected failure shape: %v", err)
		}
		t.Fatalf("fuzz against dead victim reported: %v", err)
	}
}
