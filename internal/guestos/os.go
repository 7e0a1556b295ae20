package guestos

import (
	"errors"

	"vmmk/internal/fslite"
	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// PID identifies a guest process. Both ports number their processes from
// 1, so PID 0 names no process.
type PID uint32

// System-call numbers. A call reads at most one argument, args[0].
const (
	SysGetPID  uint32 = iota + 1 // reply: the caller's PID
	SysWrite                     // args[0]: a console byte; reply: 1
	SysYield                     // reply: no words
	SysNetSend                   // args[0]: a packet length; reply: the length
	SysNetRecv                   // reply: the oldest received packet's length, Fail if none
)

// Fail is the one-word reply to a system call the OS refuses: an unknown
// number, a missing or out-of-range argument, a caller the port cannot
// name, a send no network device takes, or a receive with no packet
// queued. No length a reply carries is Fail, so a zero-length packet
// reads as 0 and an empty queue as Fail.
const Fail = ^uint64(0)

// Errors surfaced by the guest OS and its ports.
var (
	ErrNoSuchProcess = errors.New("guestos: no such process")
	ErrNoBlock       = errors.New("guestos: no block device attached")
)

// NetDev is a port's network device: each Send transmits one packet.
type NetDev interface {
	Send(data []byte) error
}

// Port is what the OS needs of the kernel it is ported to: its network and
// block devices, each nil when none is attached.
type Port interface {
	NetDev() NetDev
	BlockDev() fslite.BlockDev
}

// syscallWork is the modelled in-kernel work of one system call.
const syscallWork hw.Cycles = 150

// OS is one instance of the guest OS. A port embeds it and sets it with
// New once its trace component exists.
type OS struct {
	m    *hw.Machine
	comp trace.Comp
	port Port

	console []byte
	rxQueue hw.Queue[int] // lengths of undelivered packets, in arrival order
	zeroTx  []byte        // reused all-zero TX payload (see send)
	reply   [1]uint64     // reused one-word reply (see word)
}

// New returns an OS on machine m that charges its work to comp and reaches
// its devices through port.
func New(m *hw.Machine, comp trace.Comp, port Port) OS {
	return OS{m: m, comp: comp, port: port}
}

// Serve executes system call no for process pid, args being the words
// after the number, and returns the reply. pid is 0 when the port cannot
// name the caller. A one-word reply is the OS's reused word, valid until
// its next system call: each port hands it back before the OS can run
// again, so a call nested inside another cannot clobber the outer reply.
func (o *OS) Serve(pid PID, no uint32, args []uint64) []uint64 {
	o.m.CPU.Work(o.comp, syscallWork)
	switch no {
	case SysGetPID:
		if pid == 0 {
			return o.word(Fail)
		}
		return o.word(uint64(pid))
	case SysWrite:
		if len(args) == 0 {
			return o.word(Fail)
		}
		o.console = append(o.console, byte(args[0]))
		return o.word(1)
	case SysYield:
		return nil
	case SysNetSend:
		return o.word(o.send(args))
	case SysNetRecv:
		n, ok := o.rxQueue.Pop()
		if !ok {
			return o.word(Fail)
		}
		return o.word(uint64(n))
	}
	return o.word(Fail)
}

// word builds a one-word reply in the reused reply word.
func (o *OS) word(v uint64) []uint64 {
	o.reply[0] = v
	return o.reply[:]
}

// send transmits a blank packet of args[0] bytes and returns SysNetSend's
// reply. Every port stages a packet in one page, so a longer one is
// refused; a negative length, passed as a word, reads as a longer one.
// The workloads transmit blank payloads that every device only reads, so
// one grow-only buffer serves all sends; it is not built for a port with
// no network device.
func (o *OS) send(args []uint64) uint64 {
	if len(args) == 0 || args[0] > o.m.Mem.PageSize() {
		return Fail
	}
	nd := o.port.NetDev()
	if nd == nil {
		return Fail
	}
	n := int(args[0])
	if cap(o.zeroTx) < n {
		o.zeroTx = make([]byte, n)
	}
	if err := nd.Send(o.zeroTx[:n]); err != nil {
		return Fail
	}
	return args[0]
}

// Deliver queues a received packet of n bytes for SysNetRecv. The queue
// keeps lengths alone: no process reads the bytes, and the port has
// already charged their movement.
func (o *OS) Deliver(n int) { o.rxQueue.Push(n) }

// PendingRx returns the number of received packets no SysNetRecv has
// taken yet.
func (o *OS) PendingRx() int { return o.rxQueue.Len() }

// Console returns the bytes processes wrote with SysWrite.
func (o *OS) Console() []byte { return o.console }

// MountFS formats and mounts an fslite filesystem of blocks blocks over
// the port's block device: the same filesystem code on both kernels, the
// §2.2 component-reuse claim in action.
func (o *OS) MountFS(blocks uint64) (*fslite.FS, error) {
	bd := o.port.BlockDev()
	if bd == nil {
		return nil, ErrNoBlock
	}
	return fslite.Mkfs(bd, o.m.Mem.PageSize(), blocks)
}
