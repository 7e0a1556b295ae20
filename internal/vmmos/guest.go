package vmmos

import (
	"errors"
	"fmt"

	"vmmk/internal/fslite"
	"vmmk/internal/hw"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// PID identifies a guest process.
type PID uint32

// Syscall numbers implemented by the guest kernel.
const (
	SysGetPID uint32 = iota + 1
	SysWrite
	SysYield
	SysNetSend
	SysNetRecv
	SysBlockRead
	SysBlockWrite
)

// Errors surfaced by the guest kernel and drivers.
var (
	ErrNoSuchProcess = errors.New("vmmos: no such process")
	ErrNoNetwork     = errors.New("vmmos: no network frontend configured")
	ErrNoBlock       = errors.New("vmmos: no block frontend configured")
	ErrBackendDead   = errors.New("vmmos: backend domain is dead")
	ErrIOTimeout     = errors.New("vmmos: I/O did not complete")
)

// Process is one guest user process.
type Process struct {
	PID  PID
	Name string
}

// GuestKernel is a paravirtualised kernel running in a domain at ring 1.
// It registers the domain's hypervisor hooks at construction.
type GuestKernel struct {
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

	console []byte

	argScratch []uint64  // reused Syscall argument buffer (see Syscall)
	replyWord  [1]uint64 // reused one-word syscall reply (see errno)
	zeroTx     []byte    // reused all-zero TX payload (see SysNetSend)
}

// zeroBuf returns a reusable all-zero buffer of length n. The synthetic
// workloads transmit blank payloads, and every consumer below only reads
// them, so one grow-only buffer serves all sends.
func (gk *GuestKernel) zeroBuf(n int) []byte {
	if cap(gk.zeroTx) < n {
		gk.zeroTx = make([]byte, n)
	}
	return gk.zeroTx[:n]
}

// NewGuestKernel boots a guest kernel into dom, installing its hooks.
func NewGuestKernel(h *vmm.Hypervisor, dom *vmm.Domain) *GuestKernel {
	gk := &GuestKernel{
		H:          h,
		Dom:        dom,
		ExtraEvent: make(map[vmm.Port]func()),
	}
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

// Spawn creates a guest process.
func (gk *GuestKernel) Spawn(name string) *Process {
	p := &Process{PID: PID(len(gk.procs) + 1), Name: name}
	gk.procs = append(gk.procs, p)
	gk.H.M.CPU.Work(gk.Comp(), 500) // fork+exec stand-in
	return p
}

// Process returns the process for pid, or nil.
func (gk *GuestKernel) Process(pid PID) *Process {
	if pid == 0 || int(pid) > len(gk.procs) {
		return nil
	}
	return gk.procs[pid-1]
}

// Syscall issues a system call from process pid through the hypervisor's
// guest-syscall path (fast or bounced, whichever is live). The returned
// words are valid until the kernel's next system call.
func (gk *GuestKernel) Syscall(pid PID, no uint32, args ...uint64) ([]uint64, error) {
	if gk.Process(pid) == nil {
		return nil, ErrNoSuchProcess
	}
	// Reused scratch: GuestSyscall consumes args synchronously (the hook
	// chain never re-enters Syscall), so one buffer serves every call.
	buf := append(gk.argScratch[:0], uint64(pid))
	buf = append(buf, args...)
	gk.argScratch = buf
	return gk.H.GuestSyscall(gk.Dom.ID, no, buf)
}

// syscallWork is the modelled in-kernel work of one system call.
const syscallWork hw.Cycles = 150

// errno builds a one-word syscall reply in a reused word, valid until the
// kernel's next system call. Handlers build the reply as they return, so a
// system call nested inside another cannot clobber the outer reply.
func (gk *GuestKernel) errno(v uint64) []uint64 {
	gk.replyWord[0] = v
	return gk.replyWord[:]
}

// handleSyscall is the guest kernel's trap entry (registered as the
// domain's OnSyscall hook). args[0] is the calling PID by convention.
func (gk *GuestKernel) handleSyscall(no uint32, args []uint64) []uint64 {
	comp := gk.Comp()
	gk.H.M.CPU.Work(comp, syscallWork)
	var pid PID
	if len(args) > 0 {
		pid = PID(args[0])
	}
	switch no {
	case SysWrite, SysNetSend, SysBlockRead, SysBlockWrite: // read args[1]
		if len(args) < 2 {
			return gk.errno(^uint64(0))
		}
	}
	switch no {
	case SysGetPID:
		return gk.errno(uint64(pid))
	case SysWrite:
		gk.console = append(gk.console, byte(args[1]))
		return gk.errno(1)
	case SysYield:
		return nil
	case SysNetSend:
		if gk.Net == nil {
			return gk.errno(^uint64(0))
		}
		n := int(args[1])
		if err := gk.Net.Send(gk.zeroBuf(n)); err != nil {
			return gk.errno(^uint64(0))
		}
		return gk.errno(uint64(n))
	case SysNetRecv:
		if gk.Net == nil {
			return gk.errno(^uint64(0))
		}
		n, ok := gk.Net.RecvLen()
		if !ok {
			return gk.errno(0)
		}
		return gk.errno(uint64(n))
	case SysBlockRead, SysBlockWrite:
		if gk.Blk == nil {
			return gk.errno(^uint64(0))
		}
		var err error
		if no == SysBlockRead {
			_, err = gk.Blk.Read(args[1])
		} else {
			err = gk.Blk.Write(args[1], []byte(fmt.Sprintf("pid%d-block%d", pid, args[1])))
		}
		if err != nil {
			return gk.errno(^uint64(0))
		}
		return gk.errno(0)
	}
	return gk.errno(^uint64(0)) // ENOSYS
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

// MountFS formats and mounts an fslite filesystem over the guest's block
// frontend (served by blkback or by Parallax) — the identical filesystem
// code package mkos mounts over its storage server.
func (gk *GuestKernel) MountFS(blocks uint64) (*fslite.FS, error) {
	if gk.Blk == nil {
		return nil, ErrNoBlock
	}
	return fslite.Mkfs(gk.Blk, gk.H.M.Mem.PageSize(), blocks)
}

// WriteMemory models guest code storing data into its own page gpn at
// byte offset off. When the hypervisor has the domain's dirty log armed
// (live pre-copy migration in flight), the first store per page per round
// takes the write-protect fault the log relies on — from the guest's
// point of view it is just a slightly slower store.
func (gk *GuestKernel) WriteMemory(gpn, off int, data []byte) error {
	return gk.H.GuestMemWrite(gk.Dom.ID, gpn, off, data)
}

// Console returns what guest processes wrote with SysWrite.
func (gk *GuestKernel) Console() []byte { return gk.console }
