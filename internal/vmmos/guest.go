package vmmos

import (
	"errors"

	"vmmk/internal/fslite"
	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// Errors surfaced by the guest kernel's drivers.
var (
	ErrBackendDead = errors.New("vmmos: backend domain is dead")
	ErrIOTimeout   = errors.New("vmmos: I/O did not complete")
)

// Process is one guest user process.
type Process struct {
	PID  guestos.PID
	Name string
}

// GuestKernel is a paravirtualised kernel running in a domain at ring 1:
// the vmm port of the guest OS (package guestos), which it embeds. It
// registers the domain's hypervisor hooks at construction.
type GuestKernel struct {
	guestos.OS

	H   *vmm.Hypervisor
	Dom *vmm.Domain

	procs []*Process // PID n at index n-1; processes are never removed

	Net *NetFront
	Blk *BlkFront

	// ExtraEvent lets backends (netback, blkback, Parallax) claim ports
	// on this kernel's domain; ExtraVIRQ chains physical-interrupt
	// handling (Dom0's device IRQs).
	ExtraEvent map[vmm.Port]func()
	ExtraVIRQ  func(virq int)

	argScratch []uint64 // reused Syscall argument buffer (see Syscall)
}

// NewGuestKernel boots a guest kernel into dom, installing its hooks.
func NewGuestKernel(h *vmm.Hypervisor, dom *vmm.Domain) *GuestKernel {
	gk := &GuestKernel{
		H:          h,
		Dom:        dom,
		ExtraEvent: make(map[vmm.Port]func()),
	}
	gk.OS = guestos.New(h.M, dom.Comp(), gk)
	dom.SetHooks(vmm.GuestHooks{
		OnSyscall: gk.handleSyscall,
		OnEvent:   gk.handleEvent,
		OnVIRQ:    gk.handleVIRQ,
	})
	// Guest kernel boot: set up its virtual memory via validated updates,
	// which is visible monitor work (primitive 5).
	for vpn := 0; vpn < 8; vpn++ {
		_ = h.MMUUpdate(dom.ID, hw.VPN(0x1000+vpn), vpn, hw.PermRW, false)
	}
	return gk
}

// Comp returns the interned trace attribution handle.
func (gk *GuestKernel) Comp() trace.Comp { return gk.Dom.Comp() }

// NetDev implements guestos.Port: the net frontend, or nil.
func (gk *GuestKernel) NetDev() guestos.NetDev {
	if gk.Net == nil {
		return nil
	}
	return gk.Net
}

// BlockDev implements guestos.Port: the block frontend, or nil.
func (gk *GuestKernel) BlockDev() fslite.BlockDev {
	if gk.Blk == nil {
		return nil
	}
	return gk.Blk
}

// Spawn creates a guest process.
func (gk *GuestKernel) Spawn(name string) *Process {
	p := &Process{PID: guestos.PID(len(gk.procs) + 1), Name: name}
	gk.procs = append(gk.procs, p)
	gk.H.M.CPU.Work(gk.Comp(), 500) // fork+exec stand-in
	return p
}

// Process returns the process for pid, or nil.
func (gk *GuestKernel) Process(pid guestos.PID) *Process {
	if pid == 0 || int(pid) > len(gk.procs) {
		return nil
	}
	return gk.procs[pid-1]
}

// Syscall issues a system call from process pid through the hypervisor's
// guest-syscall path (fast or bounced, whichever is live). The returned
// words are valid until the kernel's next system call.
func (gk *GuestKernel) Syscall(pid guestos.PID, no uint32, args ...uint64) ([]uint64, error) {
	if gk.Process(pid) == nil {
		return nil, guestos.ErrNoSuchProcess
	}
	// Reused scratch: GuestSyscall consumes args synchronously (the hook
	// chain never re-enters Syscall), so one buffer serves every call.
	buf := append(gk.argScratch[:0], uint64(pid))
	buf = append(buf, args...)
	gk.argScratch = buf
	return gk.H.GuestSyscall(gk.Dom.ID, no, buf)
}

// handleSyscall is the guest kernel's trap entry (registered as the
// domain's OnSyscall hook). By the guest ABI args[0] is the calling PID
// and the call's own arguments follow it.
func (gk *GuestKernel) handleSyscall(no uint32, args []uint64) []uint64 {
	var pid guestos.PID
	if len(args) > 0 {
		pid, args = guestos.PID(args[0]), args[1:]
	}
	return gk.Serve(pid, no, args)
}

// handleEvent demultiplexes event-channel upcalls to the frontends and any
// registered backends.
func (gk *GuestKernel) handleEvent(port vmm.Port) {
	gk.H.M.CPU.Work(gk.Comp(), 80) // upcall demux
	if gk.Net != nil && port == gk.Net.localPort {
		gk.Net.onEvent()
		return
	}
	if gk.Blk != nil && port == gk.Blk.ring.frontPort {
		gk.Blk.onEvent()
		return
	}
	if h, ok := gk.ExtraEvent[port]; ok {
		h()
	}
}

// handleVIRQ handles timer and other virtual interrupts, chaining to the
// driver domain's hook when one is registered.
func (gk *GuestKernel) handleVIRQ(virq int) {
	gk.H.M.CPU.Work(gk.Comp(), 60)
	if gk.ExtraVIRQ != nil {
		gk.ExtraVIRQ(virq)
	}
}

// WriteMemory models guest code storing data into its own page gpn at
// byte offset off. When the hypervisor has the domain's dirty log armed
// (live pre-copy migration in flight), the first store per page per round
// takes the write-protect fault the log relies on — from the guest's
// point of view it is just a slightly slower store.
func (gk *GuestKernel) WriteMemory(gpn, off int, data []byte) error {
	return gk.H.GuestMemWrite(gk.Dom.ID, gpn, off, data)
}
