package mk

import (
	"errors"
	"math"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// ThreadID names a thread. The kernel component itself uses thread ID 0,
// which is never allocated.
type ThreadID uint32

// NilThread is the absent thread.
const NilThread ThreadID = 0

// SpaceID names an address space.
type SpaceID uint16

// Errors returned by kernel operations.
var (
	ErrNoSuchThread   = errors.New("mk: no such thread")
	ErrDeadPartner    = errors.New("mk: IPC partner is dead")
	ErrNotResponding  = errors.New("mk: partner not accepting IPC")
	ErrMsgTooLarge    = errors.New("mk: message exceeds transfer limit")
	ErrBadMapping     = errors.New("mk: map item references unmapped page")
	ErrPermDenied     = errors.New("mk: insufficient rights for transfer")
	ErrNoPager        = errors.New("mk: fault with no pager registered")
	ErrPagerFailed    = errors.New("mk: pager could not resolve fault")
	ErrSpaceExhausted = errors.New("mk: out of address-space IDs")
	ErrCallDepth      = errors.New("mk: IPC call chain too deep")
	ErrBadCPU         = errors.New("mk: CPU index out of range")
)

// KernelComponent is the trace attribution name of kernel-mode work.
const KernelComponent = "mk.kernel"

// maxCallDepth bounds nested server-calls-server chains; a cycle in the
// server graph is a deadlock in a real synchronous-IPC system and a bug in
// the simulation.
const maxCallDepth = 16

// Kernel is the microkernel proper.
type Kernel struct {
	M *hw.Machine

	comp trace.Comp // KernelComponent, interned at boot

	// threads and spaces are indexed by ID. IDs are handed out in order
	// from 1 and never reused, so slot 0 stays empty and the next ID is
	// the table's length.
	threads []*Thread
	spaces  []*Space

	// current is the thread each CPU has installed, by hw CPU index (nil
	// for none). The synchronous IPC model resolves most control transfer
	// directly, so scheduling's observable job is picking whom a timer
	// tick preempts to and charging context switches when this changes
	// (sched.go).
	current []*Thread
	mapdb   mapDB
	rights  map[ThreadID]map[ThreadID]bool // per-sender IPC whitelists; nil until the first (rights.go)

	callDepth int
	requests  []msgRegs // request registers, one set per call level (deliver)
}

// New boots a microkernel on machine m. The kernel reserves ASID 0 for
// itself; user spaces start at 1.
func New(m *hw.Machine) *Kernel {
	k := &Kernel{
		M:       m,
		comp:    m.Rec.Intern(KernelComponent),
		threads: []*Thread{nil},
		spaces:  []*Space{nil},
		current: make([]*Thread, m.NCPUs()),
	}
	// Boot cost: set up kernel space, IDT-equivalent, etc.
	m.CPU.Work(k.comp, 5000)
	return k
}

// Space is one protection domain: a page table plus the pager thread that
// handles its faults (the external-pager mechanism of §3.1).
type Space struct {
	ID    SpaceID
	Name  string
	PT    hw.PageTable // held by value: a space is one heap object
	Pager ThreadID
	// ExcHandler receives the space's non-page-fault exceptions as IPC
	// (the L4 exception protocol); NilThread means faults are fatal to
	// the faulting thread.
	ExcHandler ThreadID
	Dead       bool

	comp trace.Comp // "mk."+Name, interned at creation; owns its frames
}

// Comp returns the space's interned trace attribution handle.
func (s *Space) Comp() trace.Comp { return s.comp }

// NewSpace creates an empty address space. Pager may be NilThread for
// spaces that must never fault (drivers with pinned memory).
func (k *Kernel) NewSpace(name string, pager ThreadID) (*Space, error) {
	if len(k.spaces) > math.MaxUint16 {
		return nil, ErrSpaceExhausted
	}
	id := SpaceID(len(k.spaces))
	s := &Space{
		ID:    id,
		Name:  name,
		PT:    hw.NewPageTable(uint16(id)),
		Pager: pager,
		comp:  k.M.Rec.InternJoin("mk.", name),
	}
	k.spaces = append(k.spaces, s)
	k.M.CPU.Work(k.comp, 300) // space construction
	return s, nil
}

// Handler is the body of a server thread: it receives a message from a
// client and produces a reply. Handlers run "in" the server's space; the
// kernel has already switched to it and charged the switch.
type Handler func(k *Kernel, from ThreadID, msg Msg) (Msg, error)

// Thread is a kernel-scheduled activity bound to one space.
type Thread struct {
	ID      ThreadID
	Name    string
	Space   *Space
	Prio    int  // higher runs first
	Dead    bool // killed; IPC to it fails and no CPU installs it
	Handler Handler

	// Affinity is the CPU the thread is placed on (0 on a uniprocessor):
	// only that CPU installs it, so it never runs on two CPUs at once.
	// Only SetAffinity re-homes it; the kernel never moves it.
	Affinity int

	// replies receives the reply of each Call the thread makes. Replies
	// are per thread, not per call level: a caller may hold one reply
	// while another thread's call at the same level completes.
	replies msgRegs

	comp trace.Comp // "mk."+Name, interned at creation
}

// Comp returns the thread's interned trace attribution handle.
func (t *Thread) Comp() trace.Comp { return t.comp }

// NewThread creates a thread in space with the given priority and handler
// (nil for pure client threads that only originate IPC). The thread is
// placed on the boot CPU until SetAffinity re-homes it; its priority
// orders ScheduleOn's pick among the threads placed on one CPU.
func (k *Kernel) NewThread(space *Space, name string, prio int, h Handler) *Thread {
	t := &Thread{
		ID:      ThreadID(len(k.threads)),
		Name:    name,
		Space:   space,
		Prio:    prio,
		Handler: h,
		comp:    k.M.Rec.InternJoin("mk.", name),
	}
	k.threads = append(k.threads, t)
	k.M.CPU.Work(k.comp, 400) // TCB allocation and setup
	return t
}

// Comp returns the kernel's interned trace attribution handle.
func (k *Kernel) Comp() trace.Comp { return k.comp }

// Thread returns the thread for id, or nil.
func (k *Kernel) Thread(id ThreadID) *Thread {
	if int(id) >= len(k.threads) {
		return nil
	}
	return k.threads[id]
}

// Threads returns the number of live threads.
func (k *Kernel) Threads() int {
	n := 0
	for _, t := range k.threads[1:] {
		if !t.Dead {
			n++
		}
	}
	return n
}

// MapPage installs a mapping in a space with root (sigma0) authority,
// charging PTE update cost. It is how initial memory is handed out; all
// later delegation goes through IPC map items. Overwriting a slot detaches
// any derivation recorded for it.
func (k *Kernel) MapPage(s *Space, vpn hw.VPN, f hw.FrameID, perms hw.Perm) {
	s.PT.Map(vpn, hw.PTE{Frame: f, Perms: perms, User: true})
	k.M.CPU.Work(k.comp, k.M.Arch.Costs.PTEUpdate)
	k.mapdb.drop(mapNode{space: s.ID, vpn: vpn})
}

// UnmapPage removes a single mapping and charges the invalidation of its
// TLB entry, on the local CPU directly and, by cross-CPU shootdown, on any
// other CPU currently running a thread of the space. Derived mappings in
// other spaces survive (use UnmapRecursive to revoke them).
func (k *Kernel) UnmapPage(s *Space, vpn hw.VPN) {
	s.PT.Unmap(vpn)
	k.M.CPU.Work(k.comp, k.M.Arch.Costs.PTEUpdate)
	k.M.CPU.FlushTLBEntry(k.comp)
	k.M.Shootdown(0, k.cpusRunningSpace(s), 1)
	k.mapdb.drop(mapNode{space: s.ID, vpn: vpn})
}

// AllocAndMap allocates n frames to the space's name and maps them starting
// at base. It returns the frames.
func (k *Kernel) AllocAndMap(s *Space, base hw.VPN, n int, perms hw.Perm) ([]hw.FrameID, error) {
	frames, err := k.M.Mem.AllocN(s.comp, n)
	if err != nil {
		return nil, err
	}
	for i, f := range frames {
		k.MapPage(s, base+hw.VPN(i), f, perms)
	}
	return frames, nil
}

// PumpIO drives the machine until quiescent or maxRounds, the kernel
// fielding each interrupt (interrupts become IPCs to driver threads). See
// hw.Machine.PumpIO.
func (k *Kernel) PumpIO(maxRounds int) int { return k.M.PumpIO(k.comp, maxRounds) }
