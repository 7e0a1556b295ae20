package core

import (
	"errors"
	"strconv"

	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/mk"
	"vmmk/internal/mkos"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
	"vmmk/internal/vmmos"
)

// Every platform stack boots with the same machine size, disk and
// per-guest virtual disk.
const (
	// stackFrames is the stack machine's physical memory in pages.
	stackFrames = 4096
	// diskLatency is the physical disk's per-request service time.
	diskLatency hw.Cycles = 5000
	// storeBlocks is each guest's virtual disk size in blocks.
	storeBlocks = 256
)

// Config sizes and parameterises a platform boot.
type Config struct {
	Arch     *hw.Arch
	Guests   int  // guest OS instances (>= 1)
	CopyMode bool // I/O delivery by copy instead of flip/grant
	FastPath bool // enable the VMM trap-gate shortcut where legal
	LogCap   int  // trace event-log capacity (0 = counters only)
	// NCPUs is the machine's processor count (default 1). With more than
	// one CPU the stacks spread their guests over the non-boot CPUs —
	// vCPU placement on the VMM side, thread affinity on the mk side —
	// while drivers stay on the boot CPU, so cross-CPU coordination
	// (IPIs, TLB shootdown) becomes visible. E1–E11 always run with one
	// CPU and are bit-for-bit unaffected.
	NCPUs int
	// Consolidated colocates the storage service with the driver domain
	// (Parallax inside Dom0; store server inside the disk driver's space)
	// — the "super-VM" structure §2.2 warns about. Default is decomposed.
	Consolidated bool

	// pool, when set, supplies (and on Close reclaims) the stack's machine.
	// Cells set it to the pool RunCells hands them; a nil pool boots fresh.
	pool *hw.MachinePool
}

// machine acquires the stack's machine, pooled or fresh.
func (c *Config) machine() *hw.Machine {
	return c.pool.Get(c.Arch, &hw.MachineConfig{Frames: stackFrames, LogCap: c.LogCap, NCPUs: c.NCPUs})
}

// x86 is the descriptor every cell and stack in this package boots on
// unless it names another architecture. Nothing writes to it, so cells on
// every worker share it. E9's ASID ablation changes its descriptor, so it
// builds its own.
var x86 = hw.X86()

// Defaults fills zero fields.
func (c *Config) defaults() {
	if c.Arch == nil {
		c.Arch = x86
	}
	if c.Guests == 0 {
		c.Guests = 1
	}
	if c.NCPUs == 0 {
		c.NCPUs = 1
	}
}

// guestCPU spreads guest i over the non-boot CPUs (1-based round-robin);
// on a uniprocessor everything stays on CPU 0.
func (c *Config) guestCPU(i int) int {
	if c.NCPUs <= 1 {
		return 0
	}
	return 1 + i%(c.NCPUs-1)
}

// pumpRounds bounds one Pump: the stacks drive events and interrupts to
// quiescence in at most this many rounds.
const pumpRounds = 256

// stack is the body the three platform stacks share: the machine and the
// pool it goes back to, the NIC and the disk, the component that fields
// the machine's interrupts (the hypervisor, the microkernel or the native
// kernel), and InjectPackets' packet buffer (cells run in parallel, so
// stacks never share one).
type stack struct {
	Mach *hw.Machine
	NIC  *dev.NIC
	Disk *dev.Disk

	pool  *hw.MachinePool
	comp  trace.Comp
	burst []byte
}

// attach builds the stack body on machine m, whose interrupts comp fields,
// and attaches its NIC and disk. Every stack calls it right after its
// kernel boots, so components are interned in the same order on every
// boot.
func (c *Config) attach(m *hw.Machine, comp trace.Comp) stack {
	return stack{
		Mach: m,
		NIC:  dev.NewNIC(m, dev.NICConfig{RingSize: 128}),
		Disk: dev.NewDisk(m, dev.DiskConfig{Latency: diskLatency}),
		pool: c.pool,
		comp: comp,
	}
}

// M implements Platform.
func (s *stack) M() *hw.Machine { return s.Mach }

// Close implements Platform: the machine goes back to the pool it came
// from (Reset), ready for the next cell. No-op when booted without a pool.
func (s *stack) Close() { s.pool.Put(s.Mach) }

// Pump implements Platform.
func (s *stack) Pump() { s.Mach.PumpIO(s.comp, pumpRounds) }

// InjectPackets implements Platform: n packets of size bytes addressed to
// guest dest arrive at the NIC one at a time, and after each the machine
// fields the interrupt and pumps to quiescence. The NIC DMAs the bytes
// into a posted frame on Inject, so the burst buffer is reused for the
// whole burst and by the stack's next burst.
func (s *stack) InjectPackets(n, size, dest int) {
	// Only byte 0 is ever written, so the rest of the buffer stays zero.
	if cap(s.burst) < size {
		s.burst = make([]byte, size)
	}
	pkt := s.burst[:size]
	if size > 0 {
		pkt[0] = byte(dest)
	}
	for i := 0; i < n; i++ {
		s.NIC.Inject(pkt)
		s.Mach.IRQ.DispatchPending(s.comp)
		s.Mach.PumpIO(s.comp, pumpRounds)
	}
}

// ErrGuestIndex is returned for out-of-range guest references.
var ErrGuestIndex = errors.New("core: guest index out of range")

// Platform is one booted system under test.
type Platform interface {
	// Name identifies the platform ("vmm", "mk", "native").
	Name() string
	// M returns the underlying machine (clock, recorder, memory).
	M() *hw.Machine
	// Pump drives device events and interrupts to quiescence.
	Pump()
	// InjectPackets delivers n packets of the given size addressed to
	// guest dest into the NIC and processes them.
	InjectPackets(n, size, dest int)
	// DrainRx issues receive syscalls on guest dest until empty,
	// returning the number of packets the application consumed.
	DrainRx(dest int) int
	// SendPackets transmits n packets of the given size from guest from.
	SendPackets(n, size, from int) error
	// DoSyscall issues one system call on guest from.
	DoSyscall(from int, no uint32, arg uint64) error
	// StorageWrite / StorageRead exercise the guest's storage service.
	// The block StorageRead returns is valid until the stack's next
	// StorageRead: every stack hands out a reused buffer (the guest
	// BlkFront's read page, the OS server thread's reply registers, the
	// native kernel's page).
	StorageWrite(from int, block uint64, data []byte) error
	StorageRead(from int, block uint64) ([]byte, error)
	// KillStorage crashes the shared storage service (Parallax / store
	// server); KillDriver crashes the driver domain / driver servers.
	KillStorage()
	KillDriver()
	// Alive reports component liveness for the blast-radius survey.
	Alive() []ComponentStatus
	// DriverSideCycles returns CPU attributed to the privileged I/O
	// machinery (Dom0 + monitor, or driver servers + kernel).
	DriverSideCycles() uint64
	// Close releases the stack's machine back to its pool. Cells call it
	// when the row is computed; the stack must not be used afterwards.
	Close()
}

// ComponentStatus is one row of a liveness survey.
type ComponentStatus struct {
	Name  string
	Alive bool
}

// guestPort is what the vmm and mk stacks' shared request body needs of a
// port of the guest OS: a system call from one of its processes.
type guestPort interface {
	Syscall(pid guestos.PID, no uint32, args ...uint64) ([]uint64, error)
}

// guestStack is the body the vmm and mk stacks add to stack: the guest OS
// ports, the one process each runs, and the requests that process makes.
// Both stacks serve DrainRx, SendPackets and DoSyscall through it, so the
// same request meets the same guest OS on both kernels. StorageWrite and
// StorageRead stay typed on each stack: called through the type
// parameter, every caller's data would escape to the heap.
type guestStack[G guestPort] struct {
	stack
	Guests []G
	Procs  []guestos.PID

	// arg carries a request's one argument. A variadic argument passed
	// through the type parameter escapes, so a fresh one would allocate
	// on every call; each port copies its arguments before it returns.
	arg [1]uint64
}

// errSendRefused is SendPackets' error when a guest OS refuses a send:
// the packet does not fit in a page, or the network service is gone.
var errSendRefused = errors.New("core: guest OS refused the send")

// proc returns guest i's port and its process, or ErrGuestIndex.
func (s *guestStack[G]) proc(i int) (g G, pid guestos.PID, err error) {
	if i < 0 || i >= len(s.Guests) {
		return g, 0, ErrGuestIndex
	}
	return s.Guests[i], s.Procs[i], nil
}

// DrainRx implements Platform.
func (s *guestStack[G]) DrainRx(dest int) int {
	g, pid, err := s.proc(dest)
	if err != nil {
		return 0
	}
	n := 0
	for {
		ret, err := g.Syscall(pid, guestos.SysNetRecv)
		if err != nil || len(ret) == 0 || ret[0] == guestos.Fail {
			return n
		}
		n++
	}
}

// SendPackets implements Platform.
func (s *guestStack[G]) SendPackets(n, size, from int) error {
	g, pid, err := s.proc(from)
	if err != nil {
		return err
	}
	s.arg[0] = uint64(size)
	for i := 0; i < n; i++ {
		ret, err := g.Syscall(pid, guestos.SysNetSend, s.arg[:]...)
		if err != nil {
			return err
		}
		if ret[0] == guestos.Fail {
			return errSendRefused
		}
		s.Pump()
	}
	return nil
}

// DoSyscall implements Platform.
func (s *guestStack[G]) DoSyscall(from int, no uint32, arg uint64) error {
	g, pid, err := s.proc(from)
	if err != nil {
		return err
	}
	s.arg[0] = arg
	_, err = g.Syscall(pid, no, s.arg[:]...)
	return err
}

// ---------------------------------------------------------------------------
// VMM platform

// XenStack is the booted Xen-like system: hypervisor, Dom0 with physical
// drivers, N guests with net frontends, and a Parallax appliance backing
// every guest's storage. Guests holds the guest kernels, the vmm ports of
// the guest OS.
type XenStack struct {
	guestStack[*vmmos.GuestKernel]
	H  *vmm.Hypervisor
	DD *vmmos.DriverDomain
	PX *vmmos.Parallax
	ST *vmm.Store // control plane: domain and device registry
}

// NewXenStack boots the full VMM-side system.
func NewXenStack(cfg Config) (*XenStack, error) {
	cfg.defaults()
	m := cfg.machine()
	h, d0, err := vmm.New(m, 256)
	if err != nil {
		return nil, err
	}
	h.FastPathPolicy = cfg.FastPath
	s := &XenStack{H: h}
	s.stack = cfg.attach(m, h.Comp())
	dd, err := vmmos.NewDriverDomain(h, d0, s.NIC, s.Disk)
	if err != nil {
		return nil, err
	}
	if cfg.CopyMode {
		dd.Mode = vmmos.RxCopy
	}
	var px *vmmos.Parallax
	if cfg.Consolidated {
		px, err = vmmos.NewParallaxOn(dd.GK, dd, storeBlocks*uint64(cfg.Guests)+64)
	} else {
		var pxDom *vmm.Domain
		pxDom, err = h.CreateDomain("parallax", 128)
		if err != nil {
			return nil, err
		}
		px, err = vmmos.NewParallax(h, pxDom, dd, storeBlocks*uint64(cfg.Guests)+64)
	}
	if err != nil {
		return nil, err
	}
	st := vmm.NewStore(h)
	s.DD, s.PX, s.ST = dd, px, st
	if err := st.Write(vmm.Dom0, "/vm/dom0/name", "driver domain"); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Guests; i++ {
		dU, err := h.CreateDomain("domU"+strconv.Itoa(i+1), 128)
		if err != nil {
			return nil, err
		}
		gk := vmmos.NewGuestKernel(h, dU)
		if err := st.Write(vmm.Dom0, "/vm/"+dU.Name+"/name", dU.Name); err != nil {
			return nil, err
		}
		if _, err := vmmos.ConnectNet(dd, gk); err != nil {
			return nil, err
		}
		if _, err := px.AttachClient(gk, storeBlocks); err != nil {
			return nil, err
		}
		// The guest advertises its connected frontends, XenStore style.
		home := vmm.HomePrefix(dU.ID)
		if err := st.Write(dU.ID, home+"device/vif/0/state", "connected"); err != nil {
			return nil, err
		}
		if err := st.Write(dU.ID, home+"device/vbd/0/state", "connected"); err != nil {
			return nil, err
		}
		// XenoLinux boot: truncated segments, fast path if the policy
		// allows.
		if cfg.Arch.HasSegmentation {
			for reg := hw.SegDS; reg <= hw.SegGS; reg++ {
				if err := h.LoadGuestSegment(dU.ID, reg, hw.Segment{Base: 0, Limit: vmm.VMMBase - 1, DPL: hw.Ring3}); err != nil {
					return nil, err
				}
			}
			if _, err := h.EnableFastPath(dU.ID); err != nil {
				return nil, err
			}
		}
		// On a multiprocessor the guest's vCPU lives on a non-boot pCPU
		// (Dom0 and Parallax stay on the boot CPU with the monitor), so
		// event deliveries to it pay IPIs and its shadow invalidations
		// shoot down its pCPU.
		if cfg.NCPUs > 1 {
			if err := h.PlaceVCPUs(dU.ID, hw.CPUSet(1)<<cfg.guestCPU(i)); err != nil {
				return nil, err
			}
		}
		p := gk.Spawn("app")
		s.Guests = append(s.Guests, gk)
		s.Procs = append(s.Procs, p.PID)
	}
	return s, nil
}

// Name implements Platform.
func (s *XenStack) Name() string { return "vmm" }

// StorageWrite implements Platform.
func (s *XenStack) StorageWrite(from int, block uint64, data []byte) error {
	if from < 0 || from >= len(s.Guests) {
		return ErrGuestIndex
	}
	return s.Guests[from].Blk.Write(block, data)
}

// StorageRead implements Platform.
func (s *XenStack) StorageRead(from int, block uint64) ([]byte, error) {
	if from < 0 || from >= len(s.Guests) {
		return nil, ErrGuestIndex
	}
	return s.Guests[from].Blk.Read(block)
}

// KillStorage implements Platform: crash the Parallax appliance.
func (s *XenStack) KillStorage() { s.H.DestroyDomain(s.PX.GK.Dom.ID) }

// KillDriver implements Platform: crash Dom0.
func (s *XenStack) KillDriver() { s.H.DestroyDomain(vmm.Dom0) }

// Alive implements Platform.
func (s *XenStack) Alive() []ComponentStatus {
	out := []ComponentStatus{
		{"monitor", true}, // the monitor itself cannot die in this model
		{"driver(dom0)", s.H.Alive(vmm.Dom0)},
		{"storage(parallax)", s.H.Alive(s.PX.GK.Dom.ID)},
	}
	for i, gk := range s.Guests {
		out = append(out, ComponentStatus{"guest" + strconv.Itoa(i+1), s.H.Alive(gk.Dom.ID)})
	}
	return out
}

// DriverSideCycles implements Platform: Dom0 plus the monitor, the
// "driver-domain burden" Cherkasova & Gardner measured.
func (s *XenStack) DriverSideCycles() uint64 {
	return s.Mach.Rec.Cycles("vmm.dom0") + s.Mach.Rec.Cycles(vmm.HypervisorComponent)
}

// ---------------------------------------------------------------------------
// Microkernel platform

// MKStack is the booted L4-like system: microkernel, user-level NIC and
// disk driver servers, a storage server, and N OS server instances, the
// mk ports of the guest OS, in Guests.
type MKStack struct {
	guestStack[*mkos.OSServer]
	K     *mk.Kernel
	Net   *mkos.NetDriver
	Blk   *mkos.BlkDriver
	Store *mkos.StoreServer
}

// NewMKStack boots the full microkernel-side system.
func NewMKStack(cfg Config) (*MKStack, error) {
	cfg.defaults()
	m := cfg.machine()
	k := mk.New(m)
	s := &MKStack{K: k}
	s.stack = cfg.attach(m, k.Comp())
	nd, err := mkos.NewNetDriver(k, s.NIC)
	if err != nil {
		return nil, err
	}
	if cfg.CopyMode {
		nd.Mode = mkos.RxStringCopy
	}
	bd, err := mkos.NewBlkDriver(k, s.Disk)
	if err != nil {
		return nil, err
	}
	var store *mkos.StoreServer
	if cfg.Consolidated {
		store, err = mkos.NewStoreServerIn(k, bd.Space, "srv.blk.store")
	} else {
		store, err = mkos.NewStoreServer(k)
	}
	if err != nil {
		return nil, err
	}
	store.SetPersistence(bd.NewBlkClient(store.Thread.ID, storeBlocks*uint64(cfg.Guests)+64))
	s.Net, s.Blk, s.Store = nd, bd, store
	for i := 0; i < cfg.Guests; i++ {
		osrv, err := mkos.NewOSServer(k, "linux"+strconv.Itoa(i+1))
		if err != nil {
			return nil, err
		}
		nd.Attach(osrv)
		store.Attach(osrv, storeBlocks)
		// Mirror the VMM-side placement: each guest OS instance (server
		// thread plus its processes) homes on a non-boot CPU while the
		// driver and store servers keep the boot CPU, so guest⇄driver
		// IPC crosses CPUs and pays IPIs.
		if cfg.NCPUs > 1 {
			if err := osrv.Pin(cfg.guestCPU(i)); err != nil {
				return nil, err
			}
		}
		p, err := osrv.Spawn("app")
		if err != nil {
			return nil, err
		}
		s.Guests = append(s.Guests, osrv)
		s.Procs = append(s.Procs, p.PID)
	}
	return s, nil
}

// Name implements Platform.
func (s *MKStack) Name() string { return "mk" }

// StorageWrite implements Platform.
func (s *MKStack) StorageWrite(from int, block uint64, data []byte) error {
	if from < 0 || from >= len(s.Guests) {
		return ErrGuestIndex
	}
	return s.Guests[from].Blk.Write(block, data)
}

// StorageRead implements Platform.
func (s *MKStack) StorageRead(from int, block uint64) ([]byte, error) {
	if from < 0 || from >= len(s.Guests) {
		return nil, ErrGuestIndex
	}
	return s.Guests[from].Blk.Read(block)
}

// KillStorage implements Platform: crash the storage server.
func (s *MKStack) KillStorage() { s.K.KillSpace(s.Store.Space) }

// KillDriver implements Platform: crash both driver servers (the moral
// equivalent of losing Dom0's driver payload).
func (s *MKStack) KillDriver() {
	s.K.KillSpace(s.Net.Space)
	s.K.KillSpace(s.Blk.Space)
}

// Alive implements Platform.
func (s *MKStack) Alive() []ComponentStatus {
	out := []ComponentStatus{
		{"monitor", true}, // the kernel, likewise, cannot die here
		{"driver(net)", s.K.Alive(s.Net.Thread.ID)},
		{"driver(blk)", s.K.Alive(s.Blk.Thread.ID)},
		{"storage(store)", s.K.Alive(s.Store.Thread.ID)},
	}
	for i, osrv := range s.Guests {
		out = append(out, ComponentStatus{"guest" + strconv.Itoa(i+1), s.K.Alive(osrv.Thread.ID)})
	}
	return out
}

// DriverSideCycles implements Platform: the driver servers plus kernel-mode
// IPC machinery — the mk analogue of the Dom0+monitor burden.
func (s *MKStack) DriverSideCycles() uint64 {
	return s.Mach.Rec.Cycles("mk.srv.net") + s.Mach.Rec.Cycles("mk.srv.blk") + s.Mach.Rec.Cycles(mk.KernelComponent)
}

// ---------------------------------------------------------------------------
// Native baseline

// NativeStack is a monolithic-kernel baseline: syscalls are one trap, the
// driver runs in the kernel, storage is a kernel subsystem. It exists so
// the macro experiment (E8) can report both systems' overhead relative to
// an unvirtualised OS, as HHL+97 did for L4Linux.
type NativeStack struct {
	stack // its comp is NativeComponent: the kernel pays for everything

	rxQueue int
	dead    bool
	diskOK  bool   // whether the disk served the last request it completed
	readBuf []byte // StorageRead's page, valid until the next StorageRead
}

// NativeComponent is the baseline's attribution name.
const NativeComponent = "native.kernel"

// The native stack's refusals.
var (
	errNativeDead = errors.New("core: native kernel dead")
	errNativeDisk = errors.New("core: native disk refused the request")
)

// nativeRxPool is how many receive buffers the in-kernel driver keeps
// posted to the NIC.
const nativeRxPool = 32

// NewNativeStack boots the baseline.
func NewNativeStack(cfg Config) (*NativeStack, error) {
	cfg.defaults()
	m := cfg.machine()
	s := &NativeStack{stack: cfg.attach(m, m.Rec.Intern(NativeComponent))}
	m.IRQ.SetHandler(dev.RxIRQ, func(hw.IRQLine) {
		// A dead kernel fields nothing: the packets stay on the NIC.
		if s.dead {
			return
		}
		// In-kernel driver: reap and queue, no domain crossings.
		m.CPU.Charge(s.comp, trace.KIRQ, 0)
		for range s.NIC.ReapRx() {
			m.CPU.Work(s.comp, 400)
			s.rxQueue++
		}
		for s.NIC.PostedBuffers() < nativeRxPool {
			f, err := m.Mem.Alloc(s.comp)
			if err != nil {
				break
			}
			if !s.NIC.PostRxBuffer(f) {
				m.Mem.Free(f)
				break
			}
		}
	})
	m.IRQ.SetHandler(dev.TxIRQ, func(hw.IRQLine) { m.CPU.Work(s.comp, 150) })
	m.IRQ.SetHandler(dev.DiskIRQ, func(hw.IRQLine) {
		// In-kernel driver: the requester waits on its own frame, so the
		// completions are reaped for their outcome alone.
		m.CPU.Work(s.comp, 200)
		for _, c := range s.Disk.Reap() {
			s.diskOK = c.OK
		}
	})
	for i := 0; i < nativeRxPool; i++ {
		f, err := m.Mem.Alloc(s.comp)
		if err != nil {
			break
		}
		s.NIC.PostRxBuffer(f)
	}
	return s, nil
}

// Name implements Platform.
func (s *NativeStack) Name() string { return "native" }

// syscall charges the native syscall path: one trap, kernel work, return.
func (s *NativeStack) syscall(work hw.Cycles) {
	s.Mach.CPU.SetRing(hw.Ring3)
	s.Mach.CPU.Trap(s.comp, s.Mach.Arch.HasFastSyscall)
	s.Mach.CPU.Work(s.comp, 150+work)
	s.Mach.CPU.ReturnTo(s.comp, hw.Ring3)
}

// check refuses a request from any guest but the one application the
// native kernel runs, guest 0, and any request once the kernel is dead.
func (s *NativeStack) check(from int) error {
	if from != 0 {
		return ErrGuestIndex
	}
	if s.dead {
		return errNativeDead
	}
	return nil
}

// appCPU is the core the application runs on in the SMP model: the last
// one, as far from the boot CPU (which fields interrupts and runs the
// in-kernel driver) as the machine allows. 0 on a uniprocessor.
func (s *NativeStack) appCPU() int { return s.Mach.NCPUs() - 1 }

// DrainRx implements Platform. It drains nothing for a guest other than
// 0 or once the kernel is dead, as every other request is refused. On a
// multiprocessor each delivered packet costs the reschedule IPI the driver
// core sends to wake the application core — the monolithic kernel pays
// for cross-CPU coordination too, just without any protection-domain
// crossing.
func (s *NativeStack) DrainRx(dest int) int {
	n := s.rxQueue
	if s.check(dest) != nil || n == 0 {
		return 0
	}
	s.rxQueue = 0
	// The whole backlog drains as one batched charge sequence — per
	// packet it is exactly syscall(100) plus the reschedule IPI, so the
	// aggregate counters and clock match the packet-at-a-time loop.
	s.Mach.CPU.SetRing(hw.Ring3)
	s.Mach.CPU.TrapReturnN(s.comp, s.Mach.Arch.HasFastSyscall, hw.Ring3, uint64(n))
	s.Mach.CPU.WorkN(s.comp, 250, uint64(n))
	if app := s.appCPU(); app != 0 {
		s.Mach.SendIPIN(0, app, uint64(n))
	}
	return n
}

// SendPackets implements Platform. Like the guest OS, the kernel stages a
// packet in one page, so it refuses a longer one, or a negative length,
// before any work.
func (s *NativeStack) SendPackets(n, size, from int) error {
	if err := s.check(from); err != nil {
		return err
	}
	if size < 0 || uint64(size) > s.Mach.Mem.PageSize() {
		return errSendRefused
	}
	for i := 0; i < n; i++ {
		s.syscall(300 + s.Mach.CPU.CopyCost(uint64(size)))
		f, err := s.Mach.Mem.Alloc(s.comp)
		if err != nil {
			return err
		}
		s.NIC.Transmit(f, size)
		s.Mach.Mem.Free(f)
		s.Pump()
	}
	return nil
}

// DoSyscall implements Platform.
func (s *NativeStack) DoSyscall(from int, no uint32, arg uint64) error {
	if err := s.check(from); err != nil {
		return err
	}
	s.syscall(150)
	return nil
}

// smpUnmapBuffer models tearing down a transient kernel mapping on a
// multiprocessor: the unmapping core must shoot the stale translation out
// of every other core's TLB before the frame can be reused. Free on a
// uniprocessor.
func (s *NativeStack) smpUnmapBuffer(f hw.FrameID) {
	s.Mach.ShootdownEntries(0, s.Mach.AllCPUs(), 0, []hw.VPN{hw.VPN(f)})
}

// diskIO moves block to or from frame f and waits for the disk: the
// in-kernel driver's DiskIRQ handler records whether the disk served it.
func (s *NativeStack) diskIO(op dev.DiskOp, block uint64, f hw.FrameID) error {
	s.diskOK = false
	s.Disk.Submit(dev.DiskReq{Op: op, Block: block, Frame: f})
	s.Pump()
	if !s.diskOK {
		return errNativeDisk
	}
	return nil
}

// StorageWrite implements Platform: an in-kernel filesystem write.
func (s *NativeStack) StorageWrite(from int, block uint64, data []byte) error {
	if err := s.check(from); err != nil {
		return err
	}
	s.syscall(500 + s.Mach.CPU.CopyCost(s.Mach.Mem.PageSize()))
	f, err := s.Mach.Mem.Alloc(s.comp)
	if err != nil {
		return err
	}
	defer s.Mach.Mem.Free(f)
	defer s.smpUnmapBuffer(f)
	s.Mach.Mem.Write(f, 0, data)
	return s.diskIO(dev.DiskWrite, block, f)
}

// StorageRead implements Platform.
func (s *NativeStack) StorageRead(from int, block uint64) ([]byte, error) {
	if err := s.check(from); err != nil {
		return nil, err
	}
	s.syscall(500 + s.Mach.CPU.CopyCost(s.Mach.Mem.PageSize()))
	f, err := s.Mach.Mem.Alloc(s.comp)
	if err != nil {
		return nil, err
	}
	defer s.Mach.Mem.Free(f)
	defer s.smpUnmapBuffer(f)
	if err := s.diskIO(dev.DiskRead, block, f); err != nil {
		return nil, err
	}
	ps := int(s.Mach.Mem.PageSize())
	if cap(s.readBuf) < ps {
		s.readBuf = make([]byte, ps)
	}
	out := s.readBuf[:ps]
	clear(out[copy(out, s.Mach.Mem.Bytes(f)):])
	return out, nil
}

// KillStorage implements Platform: in a monolithic kernel the filesystem IS
// the kernel — its failure takes everything, the paper's structural point.
func (s *NativeStack) KillStorage() { s.dead = true }

// KillDriver implements Platform: likewise fatal.
func (s *NativeStack) KillDriver() { s.dead = true }

// Alive implements Platform.
func (s *NativeStack) Alive() []ComponentStatus {
	a := !s.dead
	return []ComponentStatus{
		{"monitor", a}, {"driver(in-kernel)", a}, {"storage(in-kernel)", a}, {"guest1", a},
	}
}

// DriverSideCycles implements Platform.
func (s *NativeStack) DriverSideCycles() uint64 { return s.Mach.Rec.Cycles(NativeComponent) }

// Interface conformance.
var (
	_ Platform = (*XenStack)(nil)
	_ Platform = (*MKStack)(nil)
	_ Platform = (*NativeStack)(nil)
)
