package guestos

import (
	"errors"
	"slices"
	"testing"

	"vmmk/internal/fslite"
	"vmmk/internal/hw"
)

// fakeNet is a network device that counts what it transmits, or refuses
// every send with err.
type fakeNet struct {
	sends, last int
	err         error
}

func (f *fakeNet) Send(data []byte) error {
	if f.err != nil {
		return f.err
	}
	f.sends, f.last = f.sends+1, len(data)
	return nil
}

// fakePort attaches the devices a test gives it; a nil one is absent.
type fakePort struct {
	net *fakeNet
	blk fslite.BlockDev
}

func (p *fakePort) NetDev() NetDev {
	if p.net == nil {
		return nil
	}
	return p.net
}

func (p *fakePort) BlockDev() fslite.BlockDev { return p.blk }

// newOS boots an OS on a small x86 machine (4 KiB pages) whose work is
// charged to the component "guest".
func newOS(port *fakePort) (*OS, *hw.Machine) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 64})
	o := New(m, m.Rec.Intern("guest"), port)
	return &o, m
}

func TestServeGetPIDWriteYield(t *testing.T) {
	o, m := newOS(&fakePort{})
	if got := o.Serve(7, SysGetPID, nil); !slices.Equal(got, []uint64{7}) {
		t.Errorf("getpid = %v, want [7]", got)
	}
	if got := o.Serve(0, SysGetPID, nil); !slices.Equal(got, []uint64{Fail}) {
		t.Errorf("getpid from an unnamed caller = %v, want [Fail]", got)
	}
	for _, b := range []byte("hi") {
		if got := o.Serve(7, SysWrite, []uint64{uint64(b)}); !slices.Equal(got, []uint64{1}) {
			t.Errorf("write %q = %v, want [1]", b, got)
		}
	}
	if string(o.Console()) != "hi" {
		t.Errorf("console = %q, want %q", o.Console(), "hi")
	}
	if got := o.Serve(7, SysYield, nil); len(got) != 0 {
		t.Errorf("yield = %v, want no words", got)
	}
	if got, want := m.Rec.Cycles("guest"), 5*uint64(syscallWork); got != want {
		t.Errorf("guest charged %d cycles for 5 calls, want %d", got, want)
	}
}

// TestServeRefusesUnknownAndMissingArgument: an unknown number and a call
// that lacks the argument it reads both reply Fail and change nothing.
func TestServeRefusesUnknownAndMissingArgument(t *testing.T) {
	net := &fakeNet{}
	o, _ := newOS(&fakePort{net: net})
	if got := o.Serve(1, 999, []uint64{1}); !slices.Equal(got, []uint64{Fail}) {
		t.Errorf("unknown syscall = %v, want [Fail]", got)
	}
	for _, no := range []uint32{SysWrite, SysNetSend} {
		if got := o.Serve(1, no, nil); !slices.Equal(got, []uint64{Fail}) {
			t.Errorf("syscall %d without an argument = %v, want [Fail]", no, got)
		}
	}
	if len(o.Console()) != 0 || net.sends != 0 {
		t.Errorf("refused calls wrote %q and sent %d packets", o.Console(), net.sends)
	}
}

// TestServeNetSendBound: a packet fits in one page; a longer one, or a
// negative length passed as a word, is refused before it reaches the
// device, and so is any send with no device, without building a payload.
func TestServeNetSendBound(t *testing.T) {
	net := &fakeNet{}
	o, m := newOS(&fakePort{net: net})
	page := m.Mem.PageSize()
	for _, n := range []uint64{page + 1, ^uint64(0)} {
		if got := o.Serve(1, SysNetSend, []uint64{n}); !slices.Equal(got, []uint64{Fail}) {
			t.Errorf("send of %d bytes = %v, want [Fail]", n, got)
		}
	}
	if net.sends != 0 {
		t.Fatalf("device saw %d oversized sends", net.sends)
	}
	if got := o.Serve(1, SysNetSend, []uint64{page}); !slices.Equal(got, []uint64{page}) || net.sends != 1 || net.last != int(page) {
		t.Errorf("page-sized send = %v (device: %d sends, last %d B)", got, net.sends, net.last)
	}
	net.err = errors.New("link down")
	if got := o.Serve(1, SysNetSend, []uint64{64}); !slices.Equal(got, []uint64{Fail}) {
		t.Errorf("send the device refuses = %v, want [Fail]", got)
	}

	bare, _ := newOS(&fakePort{})
	if got := bare.Serve(1, SysNetSend, []uint64{64}); !slices.Equal(got, []uint64{Fail}) {
		t.Errorf("send without a device = %v, want [Fail]", got)
	}
	if bare.zeroTx != nil {
		t.Errorf("send without a device built a %d-byte payload", len(bare.zeroTx))
	}
}

// TestServeNetRecvOrder: receives take packets in arrival order, a
// zero-length packet replies 0, and only an empty queue replies Fail.
func TestServeNetRecvOrder(t *testing.T) {
	o, _ := newOS(&fakePort{})
	if got := o.Serve(1, SysNetRecv, nil); !slices.Equal(got, []uint64{Fail}) {
		t.Errorf("recv on an empty queue = %v, want [Fail]", got)
	}
	for _, n := range []int{64, 0, 1500, 9} {
		o.Deliver(n)
	}
	if o.PendingRx() != 4 {
		t.Fatalf("pending = %d, want 4", o.PendingRx())
	}
	for _, want := range []uint64{64, 0, 1500, 9, Fail} {
		if got := o.Serve(1, SysNetRecv, nil); !slices.Equal(got, []uint64{want}) {
			t.Errorf("recv = %v, want [%d]", got, want)
		}
	}
	if o.PendingRx() != 0 {
		t.Errorf("pending = %d after draining, want 0", o.PendingRx())
	}
}

func TestMountFSWithoutBlockDevice(t *testing.T) {
	o, _ := newOS(&fakePort{})
	if _, err := o.MountFS(16); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("MountFS without a block device: err = %v, want ErrNoBlock", err)
	}
	o.port = &fakePort{blk: fslite.NewMemDev(4096)}
	fs, err := o.MountFS(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile("f"); err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

// TestServeAllocatesNothing: every call, served warm, allocates nothing.
// AllocsPerRun rounds down, so the console's amortized growth reads 0.
func TestServeAllocatesNothing(t *testing.T) {
	o, _ := newOS(&fakePort{net: &fakeNet{}})
	calls := []struct {
		no   uint32
		args []uint64
	}{
		{SysGetPID, nil}, {SysWrite, []uint64{'x'}}, {SysYield, nil},
		{SysNetSend, []uint64{1500}}, {SysNetRecv, nil}, {999, nil},
	}
	for _, c := range calls {
		call := func() {
			if c.no == SysNetRecv {
				o.Deliver(64)
			}
			o.Serve(1, c.no, c.args)
		}
		call()
		if got := testing.AllocsPerRun(100, call); got != 0 {
			t.Errorf("syscall %d allocates %.0f times per call, want 0", c.no, got)
		}
	}
}
