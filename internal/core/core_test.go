package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/mk"
	"vmmk/internal/vmm"
)

// Small aliases so cross-arch micro-measurements read cleanly.
func vmmNew(m *hw.Machine) (*vmm.Hypervisor, *vmm.Domain, error) { return vmm.New(m, 32) }
func mkNew(m *hw.Machine) *mk.Kernel                             { return mk.New(m) }
func mkMsg() mk.Msg                                              { return mk.Msg{Words: []uint64{1}} }
func echoHandler(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
	return msg, nil
}

func TestPlatformsBootAndProbe(t *testing.T) {
	builders := []func() (Platform, error){
		func() (Platform, error) { return NewMKStack(Config{}) },
		func() (Platform, error) { return NewXenStack(Config{}) },
		func() (Platform, error) { return NewNativeStack(Config{}) },
	}
	for _, build := range builders {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.DoSyscall(0, 1, 0); err != nil {
			t.Fatalf("%s: syscall: %v", p.Name(), err)
		}
		p.InjectPackets(3, 128, 0)
		if got := p.DrainRx(0); got != 3 {
			t.Fatalf("%s: drained %d packets, want 3", p.Name(), got)
		}
		// A zero-length packet is a packet: each drain takes every one
		// queued, empty or not.
		p.InjectPackets(2, 0, 0)
		drained := []int{p.DrainRx(0)}
		p.InjectPackets(1, 64, 0)
		drained = append(drained, p.DrainRx(0), p.DrainRx(0))
		if !slices.Equal(drained, []int{2, 1, 0}) {
			t.Fatalf("%s: drains after two empty packets, then one of 64 bytes, took %v, want [2 1 0]", p.Name(), drained)
		}
		if err := p.StorageWrite(0, 1, []byte("probe")); err != nil {
			t.Fatalf("%s: storage write: %v", p.Name(), err)
		}
		if data, err := p.StorageRead(0, 1); err != nil || string(data[:5]) != "probe" {
			t.Fatalf("%s: storage read: %q %v", p.Name(), data[:5], err)
		}
		if err := p.SendPackets(2, 64, 0); err != nil {
			t.Fatalf("%s: send: %v", p.Name(), err)
		}
	}
}

// TestPlatformGuestIndexValidation: every stack refuses each request from
// a guest it does not run with ErrGuestIndex, a negative index included,
// and drains nothing for one. The native kernel runs one application,
// guest 0.
func TestPlatformGuestIndexValidation(t *testing.T) {
	for _, name := range []string{"vmm", "mk", "native"} {
		p, _, _ := bootIOStack(t, name, 1) // one guest
		for _, g := range []int{-1, 1, 5} {
			if err := p.DoSyscall(g, 1, 0); err != ErrGuestIndex {
				t.Errorf("%s: DoSyscall from guest %d = %v, want ErrGuestIndex", name, g, err)
			}
			if err := p.SendPackets(1, 64, g); err != ErrGuestIndex {
				t.Errorf("%s: SendPackets from guest %d = %v, want ErrGuestIndex", name, g, err)
			}
			if err := p.StorageWrite(g, 1, []byte("x")); err != ErrGuestIndex {
				t.Errorf("%s: StorageWrite from guest %d = %v, want ErrGuestIndex", name, g, err)
			}
			if _, err := p.StorageRead(g, 1); err != ErrGuestIndex {
				t.Errorf("%s: StorageRead from guest %d = %v, want ErrGuestIndex", name, g, err)
			}
		}
		p.InjectPackets(2, 64, 0)
		for _, g := range []int{-1, 1} {
			if n := p.DrainRx(g); n != 0 {
				t.Errorf("%s: guest %d drained %d packets, want 0", name, g, n)
			}
		}
		if n := p.DrainRx(0); n != 2 {
			t.Errorf("%s: guest 0 drained %d packets, want 2", name, n)
		}
		p.Close()
	}
}

// TestKilledDriverDeliversNothing: once its network driver is killed, no
// stack delivers a packet injected afterwards. The interrupts the packets
// raise cost every stack the same dispatch cycles and no frames: nobody
// reaps the packets or reposts receive buffers. The native driver is the
// kernel itself, so its drain is refused like any other request to a dead
// kernel and charges nothing.
func TestKilledDriverDeliversNothing(t *testing.T) {
	var injectCycles []hw.Cycles
	for _, name := range []string{"vmm", "mk", "native"} {
		p, _, _ := bootIOStack(t, name, 1)
		p.KillDriver()
		start, free := p.M().Now(), p.M().Mem.FreeFrames()
		p.InjectPackets(3, 64, 0)
		injectCycles = append(injectCycles, p.M().Now()-start)
		if got := p.M().Mem.FreeFrames(); got != free {
			t.Errorf("%s: the inject took %d frames after the driver was killed", name, free-got)
		}
		before := p.M().Now()
		if n := p.DrainRx(0); n != 0 {
			t.Errorf("%s: drained %d packets after the driver was killed, want 0", name, n)
		}
		if name == "native" && p.M().Now() != before {
			t.Errorf("native: the dead kernel's drain charged %d cycles", p.M().Now()-before)
		}
		p.Close()
	}
	if injectCycles[1] != injectCycles[0] || injectCycles[2] != injectCycles[0] {
		t.Errorf("the inject after the kill advanced the clock by %d (vmm), %d (mk) and %d (native) cycles, want one amount",
			injectCycles[0], injectCycles[1], injectCycles[2])
	}
}

// TestStorageRefusesBlocksPastTheDisk: a write and a read of a block past
// the disk's last fail on every stack, and the next request in range
// still succeeds.
func TestStorageRefusesBlocksPastTheDisk(t *testing.T) {
	const block = 70000
	for _, name := range []string{"vmm", "mk", "native"} {
		p, _, disk := bootIOStack(t, name, 1)
		if disk.Blocks() > block {
			t.Fatalf("%s: the disk holds %d blocks, block %d is not past it", name, disk.Blocks(), block)
		}
		if err := p.StorageWrite(0, block, []byte("past")); err == nil {
			t.Errorf("%s: write of block %d succeeded", name, block)
		}
		if _, err := p.StorageRead(0, block); err == nil {
			t.Errorf("%s: read of block %d succeeded", name, block)
		}
		if err := p.StorageWrite(0, 1, []byte("in")); err != nil {
			t.Errorf("%s: write of block 1 after the refusals: %v", name, err)
		}
		if data, err := p.StorageRead(0, 1); err != nil || string(data[:2]) != "in" {
			t.Errorf("%s: read of block 1 after the refusals: %q, %v", name, data, err)
		}
		p.Close()
	}
}

// TestPlatformSendSizeValidation: every stack stages a packet in one page,
// so a send of a negative length or of more than a page is refused with
// one error and puts nothing on the wire (the native kernel refuses it
// before any work), and a 64-byte send still works afterwards. A guest
// process that passes ^0 as SysNetSend's length is refused too.
func TestPlatformSendSizeValidation(t *testing.T) {
	for _, name := range []string{"vmm", "mk", "native"} {
		p, nic, _ := bootIOStack(t, name, 1)
		page := int(p.M().Mem.PageSize())
		for _, size := range []int{-1, page + 1} {
			before := p.M().Now()
			if err := p.SendPackets(1, size, 0); !errors.Is(err, errSendRefused) {
				t.Errorf("%s: send of %d bytes: err = %v, want errSendRefused", name, size, err)
			}
			if name == "native" && p.M().Now() != before {
				t.Errorf("native: the refused send of %d bytes charged %d cycles", size, p.M().Now()-before)
			}
		}
		if err := p.DoSyscall(0, guestos.SysNetSend, ^uint64(0)); err != nil {
			t.Errorf("%s: SysNetSend of length ^0: %v", name, err)
		}
		if wire := nic.Transmitted(); len(wire) != 0 {
			t.Errorf("%s: the refused sends put %d packets on the wire", name, len(wire))
		}
		if err := p.SendPackets(1, 64, 0); err != nil {
			t.Errorf("%s: 64-byte send after the refusals: %v", name, err)
		}
		if wire := nic.Transmitted(); len(wire) != 1 || len(wire[0].Data) != 64 {
			t.Errorf("%s: the 64-byte send put %d packets on the wire", name, len(wire))
		}
		p.Close()
	}
}

// TestGuestOSAnswersAlikeOnBothStacks: the vmm and mk stacks run one guest
// OS, so one script of system calls, refused ones included, gets the same
// reply words from a XenStack guest as from an MKStack guest.
func TestGuestOSAnswersAlikeOnBothStacks(t *testing.T) {
	type call struct {
		no   uint32
		args []uint64
	}
	script := []call{
		{guestos.SysGetPID, nil},
		{guestos.SysWrite, []uint64{'a'}},
		{guestos.SysWrite, nil}, // missing argument
		{guestos.SysYield, nil},
		{guestos.SysNetRecv, nil}, // empty queue
		{guestos.SysNetSend, []uint64{64}},
		{guestos.SysNetSend, []uint64{8192}}, // more than a page
		{guestos.SysNetSend, nil},            // missing argument
		{99, []uint64{1}},                    // unknown number
	}
	fail := fmt.Sprint([]uint64{guestos.Fail}, nil)
	want := []string{"[1] <nil>", "[1] <nil>", fail, "[] <nil>", fail, "[64] <nil>", fail, fail, fail,
		"[100] <nil>", "[100] <nil>", fail}
	run := func(p Platform, g guestPort, pid guestos.PID) []string {
		var out []string
		do := func(c call) {
			ret, err := g.Syscall(pid, c.no, c.args...)
			out = append(out, fmt.Sprint(ret, err))
		}
		for _, c := range script {
			do(c)
		}
		p.InjectPackets(2, 100, 0)
		for range 3 {
			do(call{guestos.SysNetRecv, nil})
		}
		return out
	}
	xen, err := NewXenStack(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer xen.Close()
	mks, err := NewMKStack(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mks.Close()
	vmmOut := run(xen, xen.Guests[0], xen.Procs[0])
	mkOut := run(mks, mks.Guests[0], mks.Procs[0])
	for i := range want {
		if vmmOut[i] != want[i] || mkOut[i] != want[i] {
			t.Errorf("call %d: vmm replies %s, mk replies %s, want %s", i, vmmOut[i], mkOut[i], want[i])
		}
	}
}

// --- E1 ------------------------------------------------------------------

func TestE1FlipCostFlatInSize(t *testing.T) {
	rows, err := NewRunner(0).e1(40)
	if err != nil {
		t.Fatal(err)
	}
	// The smallest and the largest packet size of the sweep.
	first, last := 0, len(e1Sizes)-1
	var flip []E1Row
	var cp []E1Row
	for _, r := range rows {
		if r.Mode == "flip" {
			flip = append(flip, r)
		} else {
			cp = append(cp, r)
		}
	}
	// CG05's headline: flip-mode driver cost per packet is independent of
	// message size.
	if flip[first].PerPktCyc != flip[last].PerPktCyc {
		t.Errorf("flip per-packet cost varies with size: %d vs %d", flip[first].PerPktCyc, flip[last].PerPktCyc)
	}
	// One flip per packet.
	for _, r := range flip {
		if r.Flips != uint64(r.Packets) {
			t.Errorf("flips = %d for %d packets", r.Flips, r.Packets)
		}
	}
	// Copy mode: no flips, cost grows with size.
	for _, r := range cp {
		if r.Flips != 0 {
			t.Errorf("copy mode flipped %d times", r.Flips)
		}
	}
	if cp[last].PerPktCyc <= cp[first].PerPktCyc {
		t.Errorf("copy per-packet cost not increasing: %d -> %d", cp[first].PerPktCyc, cp[last].PerPktCyc)
	}
	// Dom0+monitor dominate CPU under I/O load ("almost all of the CPU
	// load of the system under test").
	for _, r := range rows {
		if r.DriverShare < 0.5 {
			t.Errorf("%s@%dB: driver share %.2f, want dominant", r.Mode, r.PktSize, r.DriverShare)
		}
	}
}

func TestE1RateSchedule(t *testing.T) {
	// Arrivals are spaced on the nominal 2 GHz clock: 1,000 pkt/s puts
	// them 2,000,000 cycles apart, and a non-positive rate means 1 pkt/s.
	// The work after the last arrival is the same at every such rate, so
	// each window is the schedule's span plus one shared tail.
	const packets = 8
	rates := []int{-5, 0, 1, 1000, 100000}
	gaps := []uint64{2_000_000_000, 2_000_000_000, 2_000_000_000, 2_000_000}
	rows, err := NewRunner(0).E1Rates(rates, packets, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rates) {
		t.Fatalf("rows = %d", len(rows))
	}
	tail := rows[0].WindowCyc - packets*gaps[0]
	for i, gap := range gaps {
		if got := rows[i].WindowCyc; got != packets*gap+tail || tail >= gap {
			t.Errorf("rate %d: window %d cycles, want %d arrivals %d cycles apart plus the %d-cycle tail",
				rates[i], got, packets, gap, tail)
		}
	}
	if hi, lo := rows[4].WindowCyc, rows[3].WindowCyc; hi >= lo {
		t.Errorf("100k pkt/s window %d cycles not shorter than 1k pkt/s window %d", hi, lo)
	}
}

func TestE1RateSweepShape(t *testing.T) {
	rows, err := NewRunner(0).E1Rates([]int{1000, 20000, 100000}, 80, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Delivered != r.Packets {
			t.Errorf("rate %d: dropped packets (%d/%d)", r.RatePktPerSec, r.Delivered, r.Packets)
		}
		if i > 0 && r.DriverLoad <= rows[i-1].DriverLoad {
			t.Errorf("driver load must rise with offered load: %.3f then %.3f",
				rows[i-1].DriverLoad, r.DriverLoad)
		}
	}
	// At the top rate the driver side dominates CPU consumption — "almost
	// all of the CPU load of the system under test".
	top := rows[len(rows)-1]
	if top.DriverLoad < 0.5 {
		t.Errorf("driver load at 100k pkt/s = %.2f, want dominant", top.DriverLoad)
	}
}

// --- E2 ------------------------------------------------------------------

func TestE2CountsEssentiallyEqual(t *testing.T) {
	rows, err := NewRunner(0).e2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.MKOps == 0 || r.VMMOps == 0 {
			t.Errorf("%s: degenerate counts %d/%d", r.Workload, r.MKOps, r.VMMOps)
			continue
		}
		// "Essentially the same number": same order of magnitude, within
		// 2x either way.
		if r.Ratio > 2.0 || r.Ratio < 0.5 {
			t.Errorf("%s: vmm/mk ratio %.2f outside [0.5, 2.0]", r.Workload, r.Ratio)
		}
	}
}

// --- E3 ------------------------------------------------------------------

func TestE3FastPathStory(t *testing.T) {
	rows, err := NewRunner(0).e3(100)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E3Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	native := byName["native trap"]
	fast := byName["xen trap-gate fast path"]
	bounced := byName["xen after glibc TLS (bounced)"]
	mkr := byName["mk IPC syscall (L4Linux)"]

	if !fast.FastPathLive {
		t.Fatal("fast path should be live on a pristine guest")
	}
	if bounced.FastPathLive {
		t.Fatal("fast path must die after the flat TLS segment")
	}
	// Cost ordering: fast ~ native < bounced < mk IPC.
	if fast.CyclesPerOp > native.CyclesPerOp*2 {
		t.Errorf("fast path (%d) should be near native (%d)", fast.CyclesPerOp, native.CyclesPerOp)
	}
	if bounced.CyclesPerOp <= fast.CyclesPerOp {
		t.Errorf("bounced (%d) must cost more than fast (%d)", bounced.CyclesPerOp, fast.CyclesPerOp)
	}
	// The monitor must be untouched on the fast path and charged on the
	// bounce.
	if fast.MonitorCyc != 0 {
		t.Errorf("fast path charged the monitor %d cyc/op", fast.MonitorCyc)
	}
	if bounced.MonitorCyc == 0 {
		t.Error("bounced path did not charge the monitor")
	}
	// The mk syscall costs more than a native trap (it is a full IPC) but
	// remains the same order of magnitude.
	if mkr.CyclesPerOp <= native.CyclesPerOp {
		t.Errorf("mk IPC syscall (%d) should exceed native (%d)", mkr.CyclesPerOp, native.CyclesPerOp)
	}
	if mkr.CyclesPerOp > native.CyclesPerOp*20 {
		t.Errorf("mk IPC syscall (%d) implausibly expensive vs native (%d)", mkr.CyclesPerOp, native.CyclesPerOp)
	}
}

// --- E4 ------------------------------------------------------------------

func TestE4BlastRadiusIdenticalOnBothSystems(t *testing.T) {
	rows, err := NewRunner(0).e4(3)
	if err != nil {
		t.Fatal(err)
	}
	get := func(platform, scenario string) E4Row {
		for _, r := range rows {
			if r.Platform == platform && r.Scenario == scenario {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", platform, scenario)
		return E4Row{}
	}
	for _, sc := range []string{"kill storage service", "kill driver domain"} {
		mkRow := get("mk", sc)
		vmmRow := get("vmm", sc)
		natRow := get("native", sc)

		// §3.1: identical confinement on mk and vmm.
		if mkRow.KernelAlive != vmmRow.KernelAlive ||
			mkRow.StorageWorks != vmmRow.StorageWorks ||
			mkRow.NetworkWorks != vmmRow.NetworkWorks ||
			mkRow.GuestsSurvive != vmmRow.GuestsSurvive {
			t.Errorf("%s: mk and vmm blast radii differ: %+v vs %+v", sc, mkRow, vmmRow)
		}
		// Both confine: kernel and guests survive, storage fails.
		if !mkRow.KernelAlive || mkRow.GuestsSurvive != 3 || mkRow.StorageWorks {
			t.Errorf("%s: mk confinement wrong: %+v", sc, mkRow)
		}
		// Native: everything dies.
		if natRow.KernelAlive || natRow.StorageWorks || natRow.NetworkWorks || natRow.GuestsSurvive != 0 {
			t.Errorf("%s: native should lose everything: %+v", sc, natRow)
		}
	}
	// Storage death must NOT take the network down (decomposition), but
	// driver death must.
	if !get("mk", "kill storage service").NetworkWorks || !get("vmm", "kill storage service").NetworkWorks {
		t.Error("storage crash took the network down")
	}
	if get("mk", "kill driver domain").NetworkWorks || get("vmm", "kill driver domain").NetworkWorks {
		t.Error("network survived its driver's death")
	}
}

// --- E5 ------------------------------------------------------------------

func TestE5CensusOneVsTen(t *testing.T) {
	rows, err := NewRunner(0).e5()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E5Row{}
	for _, r := range rows {
		byName[r.Platform] = r
	}
	// All mk primitives are facets of IPC; the census shows only ipc.*
	// entries.
	for _, p := range byName["mk"].Primitives {
		if !strings.HasPrefix(p, "ipc.") {
			t.Errorf("mk primitive %q is not an IPC facet", p)
		}
	}
	// The VMM must exercise all ten of the paper's primitives.
	if byName["vmm"].Count != 10 {
		t.Errorf("vmm census = %d, want the paper's 10", byName["vmm"].Count)
	}
	if byName["mk"].Count >= byName["vmm"].Count {
		t.Errorf("mk census (%d) must be smaller than vmm's (%d)", byName["mk"].Count, byName["vmm"].Count)
	}
	// "Each primitive requires a dedicated set of security mechanisms":
	// the union of mechanisms behind the VMM's primitives must dwarf the
	// microkernel's shared set.
	if byName["mk"].Mechanisms >= byName["vmm"].Mechanisms {
		t.Errorf("mechanisms: mk %d vs vmm %d — claim requires mk smaller",
			byName["mk"].Mechanisms, byName["vmm"].Mechanisms)
	}
	if byName["mk"].Mechanisms != 3 {
		t.Errorf("mk mechanisms = %d, want the shared 3", byName["mk"].Mechanisms)
	}
}

// --- E6 ------------------------------------------------------------------

func TestE6NinePlatformsUnchanged(t *testing.T) {
	rows, err := NewRunner(0).e6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9 architectures", len(rows))
	}
	nonZeroDeltas := 0
	for _, r := range rows {
		if !r.MKRuns || r.MKChanges != 0 {
			t.Errorf("%s: mk personality needed changes (%d) or failed", r.Arch, r.MKChanges)
		}
		if r.Arch == "x86" && r.VMMDeltas != 0 {
			t.Errorf("x86 baseline has %d deltas vs itself", r.VMMDeltas)
		}
		if r.Arch != "x86" && r.VMMDeltas > 0 {
			nonZeroDeltas++
		}
	}
	if nonZeroDeltas != 8 {
		t.Errorf("only %d/8 non-baseline archs show VMM interface deltas", nonZeroDeltas)
	}
}

// --- E7 ------------------------------------------------------------------

func TestE7CostStructure(t *testing.T) {
	rows, err := NewRunner(0).e7(50)
	if err != nil {
		t.Fatal(err)
	}
	get := func(op string) uint64 {
		for _, r := range rows {
			if r.Op == op {
				return r.Cycles
			}
		}
		t.Fatalf("missing op %q", op)
		return 0
	}
	ipc := get("IPC call round trip (short)")
	flip := get("grant + page flip")
	hyper := get("hypercall (nop)")
	trap := get("bare trap + return")
	// The cost hierarchy everything in the paper assumes.
	if !(trap < hyper && hyper < ipc) {
		t.Errorf("expected trap(%d) < hypercall(%d) < IPC RT(%d)", trap, hyper, ipc)
	}
	if flip <= ipc {
		t.Errorf("page flip (%d) should exceed an IPC round trip (%d)", flip, ipc)
	}
	if get("IPC call round trip (1KB string)") <= ipc {
		t.Error("string IPC should cost more than short IPC")
	}
}

func TestE7OrderingHoldsOnAllArchitectures(t *testing.T) {
	// The cost hierarchy the arguments rest on is not an x86 artifact:
	// on every platform, a hypercall is cheaper than a full IPC round
	// trip, and the guest syscall bounce sits between them.
	for _, arch := range hw.AllArchs() {
		arch := arch
		t.Run(arch.Name, func(t *testing.T) {
			// Hypercall cost.
			mv := hw.NewMachine(arch, &hw.MachineConfig{Frames: 256})
			h, _, err := vmmNew(mv)
			if err != nil {
				t.Fatal(err)
			}
			dU, err := h.CreateDomain("u", 16)
			if err != nil {
				t.Fatal(err)
			}
			t0 := mv.Now()
			for i := 0; i < 20; i++ {
				if err := h.Hypercall(dU.ID, "nop", 0); err != nil {
					t.Fatal(err)
				}
			}
			hyper := uint64(mv.Now()-t0) / 20

			// IPC round trip cost.
			mm := hw.NewMachine(arch, &hw.MachineConfig{Frames: 256})
			k := mkNew(mm)
			cs, _ := k.NewSpace("c", 0)
			ss, _ := k.NewSpace("s", 0)
			cl := k.NewThread(cs, "c", 1, nil)
			srv := k.NewThread(ss, "s", 2, echoHandler)
			t1 := mm.Now()
			for i := 0; i < 20; i++ {
				if _, err := k.Call(cl.ID, srv.ID, mkMsg()); err != nil {
					t.Fatal(err)
				}
			}
			ipc := uint64(mm.Now()-t1) / 20

			if !(hyper < ipc) {
				t.Errorf("%s: hypercall (%d) should be cheaper than IPC RT (%d)", arch.Name, hyper, ipc)
			}
		})
	}
}

// --- E8 ------------------------------------------------------------------

func TestE8BothParavirtStacksViable(t *testing.T) {
	rows, err := NewRunner(0).e8(20)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E8Row{}
	for _, r := range rows {
		byName[r.Platform] = r
	}
	if byName["native"].RelativeCost != 1.0 {
		t.Fatal("native must be the 1.0 baseline")
	}
	for _, name := range []string{"mk", "vmm"} {
		rc := byName[name].RelativeCost
		if rc < 1.0 {
			t.Errorf("%s faster than native (%.2fx) — accounting bug", name, rc)
		}
		// §3.3's point: the paravirtualised OS performs well on both;
		// neither stack is degenerate (an order of magnitude off).
		if rc > 3.0 {
			t.Errorf("%s relative cost %.2fx — not 'excellent performance'", name, rc)
		}
	}
}

// --- E9 ------------------------------------------------------------------

func TestE9Ablations(t *testing.T) {
	rows, err := NewRunner(0).e9()
	if err != nil {
		t.Fatal(err)
	}
	get := func(ablation, variant string) float64 {
		for _, r := range rows {
			if r.Ablation == ablation && r.Variant == variant {
				return r.Value
			}
		}
		t.Fatalf("missing %s/%s", ablation, variant)
		return 0
	}
	// (a) copy beats flip for small packets; flip wins at page size.
	if !(get("a: rx transport", "copy @64B") < get("a: rx transport", "flip @64B")) {
		t.Error("copy should beat flip at 64B")
	}
	if !(get("a: rx transport", "copy @4096B") > get("a: rx transport", "flip @4096B")) {
		t.Error("flip should beat copy at 4096B")
	}
	// (b) ASIDs cut IPC cost substantially.
	if !(get("b: TLB tagging", "ASID-tagged TLB") < get("b: TLB tagging", "untagged TLB")*0.7) {
		t.Error("ASID tagging should cut IPC cost by >30%")
	}
	// (c) fast path cheaper than bounced.
	if !(get("c: trap-gate shortcut", "fast path on") < get("c: trap-gate shortcut", "fast path off")) {
		t.Error("fast path should be cheaper")
	}
	// (d) decomposition preserves more services through a storage crash.
	if !(get("d: consolidation", "decomposed servers") > get("d: consolidation", "super-VM (storage in dom0)")) {
		t.Error("decomposed structure should survive better")
	}
	// (e) a fat server's cache footprint must make steady-state IPC
	// markedly slower than a small server's — the minimality argument.
	small := get("e: cache footprint", "small server (fits in cache)")
	fatCost := get("e: cache footprint", "fat server (thrashes cache)")
	if fatCost < small*1.5 {
		t.Errorf("cache thrash too cheap: fat %.0f vs small %.0f", fatCost, small)
	}
	// (f) coalescing reduces per-packet driver cost (and the variant
	// labels carry the IRQ counts, asserted by substring).
	var batch1, batch8 float64
	for _, r := range rows {
		if r.Ablation != "f: irq coalescing" {
			continue
		}
		if strings.HasPrefix(r.Variant, "batch=1 ") {
			batch1 = r.Value
			if !strings.Contains(r.Variant, "irqs=64") {
				t.Errorf("batch=1 should interrupt per packet: %s", r.Variant)
			}
		}
		if strings.HasPrefix(r.Variant, "batch=8 ") {
			batch8 = r.Value
			if !strings.Contains(r.Variant, "irqs=8") {
				t.Errorf("batch=8 should raise 8 interrupts: %s", r.Variant)
			}
		}
	}
	if !(batch8 < batch1) {
		t.Errorf("coalescing did not reduce driver cost: %.0f vs %.0f", batch8, batch1)
	}
	// (g) trap-and-emulate must cost more than the paravirtual hypercall
	// per PT update — why VMMs diverged to paravirtualisation.
	shadow := get("g: virtualisation style", "shadow trap-and-emulate")
	para := get("g: virtualisation style", "paravirtual hypercall")
	if !(shadow > para*1.2) {
		t.Errorf("shadow (%.0f) should clearly exceed paravirt (%.0f)", shadow, para)
	}
}

func TestConsolidatedModeWidensBlastRadius(t *testing.T) {
	// §2.2: "centralized super-VMs that combine and colocate significant
	// critical system functionality … poses the risk of a single point of
	// failure." Same crash, two structures, different wreckage — on BOTH
	// systems, because the structural choice is orthogonal to mk-vs-vmm.
	type outcome struct{ net, storage bool }
	probe := func(p Platform) outcome {
		p.KillStorage()
		return outcome{
			net:     p.SendPackets(1, 64, 0) == nil,
			storage: p.StorageWrite(0, 1, []byte("x")) == nil,
		}
	}
	for _, name := range []string{"mk", "vmm"} {
		build := func(consolidated bool) (Platform, error) {
			cfg := Config{Consolidated: consolidated}
			if name == "mk" {
				return NewMKStack(cfg)
			}
			return NewXenStack(cfg)
		}
		decomposed, err := build(false)
		if err != nil {
			t.Fatal(err)
		}
		consolidated, err := build(true)
		if err != nil {
			t.Fatal(err)
		}
		d, c := probe(decomposed), probe(consolidated)
		if d.storage || c.storage {
			t.Errorf("%s: storage survived its own crash", name)
		}
		if !d.net {
			t.Errorf("%s decomposed: network should survive a storage crash", name)
		}
		if name == "vmm" && c.net {
			t.Errorf("vmm consolidated: network should die with the super-VM")
		}
	}
}

func TestConsolidatedStorageStillWorks(t *testing.T) {
	for _, build := range []func() (Platform, error){
		func() (Platform, error) { return NewMKStack(Config{Consolidated: true}) },
		func() (Platform, error) { return NewXenStack(Config{Consolidated: true}) },
	} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.StorageWrite(0, 1, []byte("consolidated")); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got, err := p.StorageRead(0, 1)
		if err != nil || string(got[:12]) != "consolidated" {
			t.Fatalf("%s: read %q, %v", p.Name(), got[:12], err)
		}
	}
}

// --- E10 -----------------------------------------------------------------

func TestE10ExtensionComplexity(t *testing.T) {
	rows, err := NewRunner(0).e10(50)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E10Row{}
	for _, r := range rows {
		byName[r.Platform] = r
	}
	mkRow, vmmRow := byName["mk"], byName["vmm"]
	// §2.2: the microkernel extension programs against strictly fewer
	// privileged interfaces, at boot and in steady state.
	if mkRow.BootPrimitives >= vmmRow.BootPrimitives {
		t.Errorf("boot surface: mk %d vs vmm %d — claim requires mk smaller",
			mkRow.BootPrimitives, vmmRow.BootPrimitives)
	}
	if mkRow.ServePrimitives > vmmRow.ServePrimitives {
		t.Errorf("serve surface: mk %d vs vmm %d", mkRow.ServePrimitives, vmmRow.ServePrimitives)
	}
	// All of mk's interfaces are IPC facets.
	for _, n := range mkRow.BootNames {
		if !strings.HasPrefix(n, "ipc.") {
			t.Errorf("mk extension used non-IPC primitive %s", n)
		}
	}
	// Identical service logic: the VMM's higher per-request cost is pure
	// interface overhead, and it must be substantial (the grant+event
	// machinery vs one IPC call).
	if vmmRow.CyclesPerGet <= mkRow.CyclesPerGet {
		t.Errorf("per-get: vmm %d should exceed mk %d", vmmRow.CyclesPerGet, mkRow.CyclesPerGet)
	}
}

// --- E11 -----------------------------------------------------------------

func TestE11LiveMigrationBeatsStopAndCopy(t *testing.T) {
	// 64 pages, budgets {0, 1, 4}, and dirty rates {0, 24/6, 24}.
	const frames = 64
	rates, budgets := []int{0, 4, 24}, []int{0, 1, 4}
	rows, err := NewRunner(0).e11(frames, 4, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rates)*len(budgets) {
		t.Fatalf("rows = %d, want %d", len(rows), len(rates)*len(budgets))
	}
	get := func(rate, budget int) E11Row {
		for _, r := range rows {
			if r.DirtyRate == rate && r.Budget == budget {
				return r
			}
		}
		t.Fatalf("missing cell rate=%d budget=%d", rate, budget)
		return E11Row{}
	}
	for _, rate := range rates {
		stop := get(rate, 0)
		live := get(rate, 4)
		// The acceptance criterion: pre-copy's blackout is strictly shorter
		// than freezing the guest for the whole copy, at every dirty rate
		// below memory size.
		if live.DowntimeCyc >= stop.DowntimeCyc {
			t.Errorf("rate %d: live downtime %d not below stop-and-copy %d",
				rate, live.DowntimeCyc, stop.DowntimeCyc)
		}
		// The price is bandwidth: pre-copy never moves fewer pages.
		if live.PagesMoved < stop.PagesMoved {
			t.Errorf("rate %d: live moved %d pages, stop-and-copy %d",
				rate, live.PagesMoved, stop.PagesMoved)
		}
	}
	// A clean guest converges after one full round with nothing to re-send.
	clean := get(0, 4)
	if clean.Rounds != 1 || clean.PagesMoved != frames {
		t.Errorf("clean guest: rounds=%d moved=%d, want 1 round, %d pages",
			clean.Rounds, clean.PagesMoved, frames)
	}
	// A writing guest re-sends: strictly more transfers than memory size.
	if hot := get(24, 4); hot.PagesMoved <= frames {
		t.Errorf("hot guest moved only %d pages across %d rounds", hot.PagesMoved, hot.Rounds)
	}
	// More budget at the same rate must not lengthen the blackout.
	for _, rate := range rates[1:] {
		if get(rate, 4).DowntimeCyc > get(rate, 1).DowntimeCyc {
			t.Errorf("rate %d: budget 4 downtime %d exceeds budget 1's %d",
				rate, get(rate, 4).DowntimeCyc, get(rate, 1).DowntimeCyc)
		}
	}
}

// --- harness -------------------------------------------------------------

func TestRunAllProducesEveryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	var buf bytes.Buffer
	if err := NewRunner(0).RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range Specs() {
		if !strings.Contains(out, "== "+s.ID+":") {
			t.Errorf("output missing experiment %s", s.ID)
		}
	}
}

func TestXenStoreRegistryPopulatedAtBoot(t *testing.T) {
	s, err := NewXenStack(Config{Guests: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range []string{"dom0", "domU1", "domU2"} {
		if _, err := s.ST.Read(s.Guests[0].Dom.ID, "/vm/"+vm+"/name"); err != nil {
			t.Fatalf("registry entry for %s: %v", vm, err)
		}
	}
	state, err := s.ST.Read(s.Guests[0].Dom.ID, "/local/domain/2/device/vif/0/state")
	if err != nil || state != "connected" {
		t.Fatalf("vif state = %q, %v", state, err)
	}
}

func TestPersonalityMountFSHelpers(t *testing.T) {
	mkStack, err := NewMKStack(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mfs, err := mkStack.Guests[0].MountFS(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := mfs.WriteFile("a", []byte("mk-side")); err != nil {
		t.Fatal(err)
	}
	xen, err := NewXenStack(Config{})
	if err != nil {
		t.Fatal(err)
	}
	vfs, err := xen.Guests[0].MountFS(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile("a", []byte("vmm-side")); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile("a")
	if err != nil || string(got) != "vmm-side" {
		t.Fatalf("read %q, %v", got, err)
	}
}

func TestWholeEvaluationIsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation twice")
	}
	// The repository's headline determinism property: the entire
	// evaluation, byte for byte, twice.
	var a, b bytes.Buffer
	if err := NewRunner(0).RunAll(&a); err != nil {
		t.Fatal(err)
	}
	if err := NewRunner(0).RunAll(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two runs of the full evaluation differ — nondeterminism crept in")
	}
}

func TestDeterministicReplay(t *testing.T) {
	// The whole point of the simulation: identical runs yield identical
	// cycle counts.
	run := func() uint64 {
		s, err := NewXenStack(Config{})
		if err != nil {
			t.Fatal(err)
		}
		s.InjectPackets(10, 700, 0)
		s.DrainRx(0)
		if err := s.StorageWrite(0, 3, []byte("det")); err != nil {
			t.Fatal(err)
		}
		return uint64(s.M().Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged: %d vs %d cycles", a, b)
	}
}

func TestCrossArchBothStacksBoot(t *testing.T) {
	// The VMM stack also boots on non-x86 (paravirtual interface exists
	// everywhere); only the fast path is x86-only. This keeps E6 honest:
	// the portability difference is interface variance, not "vmm cannot
	// exist elsewhere".
	for _, arch := range []*hw.Arch{hw.ARM(), hw.PPC64()} {
		s, err := NewXenStack(Config{Arch: arch})
		if err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		if err := s.DoSyscall(0, 1, 0); err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		if s.H.FastPathActive(s.Guests[0].Dom.ID) {
			t.Fatalf("%s: fast path cannot be active without segmentation", arch.Name)
		}
	}
}
