package mkos

import (
	"errors"

	"vmmk/internal/fslite"
	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/mk"
	"vmmk/internal/trace"
)

// IPC protocol labels used between the servers.
const (
	LabelSyscall uint32 = 0x100 + iota
	LabelNetTx
	LabelNetRxDeliver
	LabelBlkRead
	LabelBlkWrite
	LabelStoreSnapshot
)

// Errors surfaced by the OS personality.
var (
	ErrNoBlock    = errors.New("mkos: no block service attached")
	ErrBadRequest = errors.New("mkos: malformed request")
	ErrKVTooLong  = errors.New("mkos: KV request does not fit in a page")
)

// Proc is one user process: its own address space (paged by the OS server)
// and a client thread.
type Proc struct {
	PID    guestos.PID
	Name   string
	Thread *mk.Thread
	Space  *mk.Space
}

// OSServer is the paravirtualised guest OS: the mk port of package
// guestos's OS, which it embeds. One server thread serves its processes'
// system calls, each one IPC call, and holds a network connection to the
// driver server and a block service (driver or store).
type OSServer struct {
	guestos.OS

	K      *mk.Kernel
	Space  *mk.Space
	Thread *mk.Thread

	procs []*Proc // PID n at index n-1; processes are never removed

	Net *NetClient
	Blk *BlkClient

	argScratch []uint64 // reused Syscall word buffer (see Syscall)
	homeCPU    int      // CPU the server and its processes are pinned to (Pin)

	pagerWindow hw.VPN // next free window page for fault service
}

// NewOSServer boots an OS server named name on kernel k.
func NewOSServer(k *mk.Kernel, name string) (*OSServer, error) {
	sp, err := k.NewSpace(name, mk.NilThread)
	if err != nil {
		return nil, err
	}
	os := &OSServer{
		K:           k,
		Space:       sp,
		pagerWindow: 0x9000,
	}
	os.Thread = k.NewThread(sp, name, 5, os.handle)
	os.OS = guestos.New(k.M, os.Thread.Comp(), os)
	return os, nil
}

// Comp returns the server's interned trace attribution handle.
func (os *OSServer) Comp() trace.Comp { return os.Thread.Comp() }

// NetDev implements guestos.Port: the connection to the net driver, or
// nil.
func (os *OSServer) NetDev() guestos.NetDev {
	if os.Net == nil {
		return nil
	}
	return os.Net
}

// BlockDev implements guestos.Port: the block service, or nil.
func (os *OSServer) BlockDev() fslite.BlockDev {
	if os.Blk == nil {
		return nil
	}
	return os.Blk
}

// Spawn creates a process: a fresh space paged by the OS server, plus its
// thread.
func (os *OSServer) Spawn(name string) (*Proc, error) {
	sp, err := os.K.NewSpace(os.Space.Name+"."+name, os.Thread.ID)
	if err != nil {
		return nil, err
	}
	t := os.K.NewThread(sp, sp.Name, 1, nil)
	if os.homeCPU != 0 {
		if err := os.K.SetAffinity(t.ID, os.homeCPU); err != nil {
			return nil, err
		}
	}
	p := &Proc{PID: guestos.PID(len(os.procs) + 1), Name: name, Thread: t, Space: sp}
	os.procs = append(os.procs, p)
	os.K.M.CPU.Work(os.Comp(), 500)
	return p, nil
}

// Pin re-homes the OS server thread and every one of its processes onto
// cpu; later Spawns inherit the placement. This is the mk-side analogue of
// vmm.PlaceVCPUs, with a thread homed on one CPU where a domain's vCPUs
// span an hw.CPUSet: the SMP experiment (E12) pins each guest OS instance
// to its own CPU while the driver servers stay on the boot CPU, so
// syscalls stay CPU-local and driver IPC pays the cross-CPU IPI surcharge.
func (os *OSServer) Pin(cpu int) error {
	if err := os.K.SetAffinity(os.Thread.ID, cpu); err != nil {
		return err
	}
	for _, p := range os.procs {
		if err := os.K.SetAffinity(p.Thread.ID, cpu); err != nil {
			return err
		}
	}
	os.homeCPU = cpu
	return nil
}

// Proc returns the process for pid, or nil.
func (os *OSServer) Proc(pid guestos.PID) *Proc {
	if pid == 0 || int(pid) > len(os.procs) {
		return nil
	}
	return os.procs[pid-1]
}

// byTID returns the process whose thread is tid, or nil. A server runs
// one or two processes, so a scan beats an index.
func (os *OSServer) byTID(tid mk.ThreadID) *Proc {
	for _, p := range os.procs {
		if p.Thread.ID == tid {
			return p
		}
	}
	return nil
}

// Syscall issues a system call from process pid: one IPC call to the OS
// server — the L4Linux structure the paper's §3.2 equates with Xen's
// bounced syscalls. The returned words are the process thread's reply
// registers, valid until that thread's next IPC.
func (os *OSServer) Syscall(pid guestos.PID, no uint32, args ...uint64) ([]uint64, error) {
	p := os.Proc(pid)
	if p == nil {
		return nil, guestos.ErrNoSuchProcess
	}
	// Reused scratch: Call copies the message into the kernel's registers
	// before the handler sees it and never retains the original, so one
	// buffer serves every syscall.
	words := append(os.argScratch[:0], uint64(no))
	words = append(words, args...)
	os.argScratch = words
	reply, err := os.K.Call(p.Thread.ID, os.Thread.ID, mk.Msg{Label: LabelSyscall, Words: words})
	if err != nil {
		return nil, err
	}
	return reply.Words, nil
}

// handle is the OS server's IPC entry point: syscalls from its processes,
// packet deliveries from the net driver, and page faults from its
// processes (the server is their external pager).
func (os *OSServer) handle(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
	switch msg.Label {
	case mk.LabelPageFault:
		return os.handleFault(k, from, msg)
	case LabelNetRxDeliver:
		// One packet from the driver; payload already in msg.Data
		// (string transfer) or granted via map items + Words[0]=len.
		// No process reads the bytes, so the OS queues the length alone
		// (the message is the kernel's until this handler returns).
		k.M.CPU.Work(os.Comp(), 250)
		os.Deliver(len(msg.Data))
		return mk.Msg{}, nil
	case LabelSyscall:
		// Words[0] is the number and the call's arguments follow it; the
		// caller is named by its thread.
		if len(msg.Words) == 0 {
			return mk.Msg{}, ErrBadRequest
		}
		var pid guestos.PID
		if p := os.byTID(from); p != nil {
			pid = p.PID
		}
		return mk.Msg{Words: os.Serve(pid, uint32(msg.Words[0]), msg.Words[1:])}, nil
	}
	return mk.Msg{}, ErrBadRequest
}

// handleFault services a page fault of one of this server's processes:
// allocate backing, map it into the server's window, delegate to the
// faulter. This is the external-pager protocol of §3.1.
func (os *OSServer) handleFault(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
	comp := os.Comp()
	k.M.CPU.Work(comp, 400) // vm_area lookup, policy
	if len(msg.Words) < 2 {
		return mk.Msg{}, ErrBadRequest
	}
	vpn := hw.VPN(msg.Words[0])
	f, err := k.M.Mem.Alloc(os.Comp())
	if err != nil {
		return mk.Msg{}, err
	}
	window := os.pagerWindow
	os.pagerWindow++
	os.Space.PT.Map(window, hw.PTE{Frame: f, Perms: hw.PermRW, User: true})
	return mk.Msg{
		Label: mk.LabelPageFaultReply,
		Map:   []mk.MapItem{{SrcVPN: window, DstVPN: vpn, Count: 1, Perms: hw.PermRW}},
	}, nil
}
