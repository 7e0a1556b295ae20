package vmm

import (
	"errors"
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// DomID names a domain. Dom0 is, by Xen convention, the privileged domain
// that hosts legacy device drivers.
type DomID uint16

// Dom0 is the control/driver domain's well-known ID.
const Dom0 DomID = 0

// Errors returned by hypervisor operations.
var (
	ErrNoSuchDomain  = errors.New("vmm: no such domain")
	ErrDomainDead    = errors.New("vmm: domain is dead")
	ErrBadGrant      = errors.New("vmm: invalid grant reference")
	ErrGrantRevoked  = errors.New("vmm: grant revoked")
	ErrGrantReadOnly = errors.New("vmm: write through read-only grant")
	ErrBadPort       = errors.New("vmm: invalid event-channel port")
	ErrBadPTE        = errors.New("vmm: page-table update failed validation")
	ErrNotPrivileged = errors.New("vmm: operation requires Dom0 privilege")
	ErrNoFastPath    = errors.New("vmm: fast path unavailable")
	ErrFrameNotOwned = errors.New("vmm: domain does not own frame")
	ErrBadPCPU       = errors.New("vmm: physical CPU index out of range")
	ErrDomainExists  = errors.New("vmm: a live domain already has that name")
)

// ErrDomIDsExhausted is returned by a domain build once every DomID has
// been handed out. IDs are never reused, and the next one would wrap to
// Dom0's.
var ErrDomIDsExhausted = errors.New("vmm: out of domain IDs")

// HypervisorComponent is the trace attribution name of monitor-mode work.
const HypervisorComponent = "vmm.xen"

// VMMBase is the start of the virtual-address region the monitor reserves
// for itself in every guest (Xen reserves the top 64 MB on x86/32). The
// trap-gate fast path is safe only while every guest data segment excludes
// this region.
const VMMBase uint64 = 0xFC00_0000

// Hypervisor is the monitor proper.
type Hypervisor struct {
	M *hw.Machine

	comp trace.Comp // HypervisorComponent, interned at boot

	// domains is indexed by DomID: ids are allocated sequentially and
	// never reused, so its length is the next id and the watermark that
	// tells a destroyed id from one never handed out. Destroyed domains
	// leave a nil slot, which lets the hot lookup path be a bounds-checked
	// load instead of a map probe.
	domains []*Domain
	order   []DomID // creation order, for deterministic iteration

	ports     []*channel
	chanGen   []int // per-slot reuse generation: stale ports never alias
	freeChans []int // reclaimed channel slots, reused by BindChannel
	current   *Domain

	// FastPathPolicy globally enables the trap-gate syscall shortcut
	// (ablation switch for E9; per-domain validity is tracked separately).
	FastPathPolicy bool

	// victims is BalloonOut's reusable list of frames to release.
	victims []hw.FrameID
}

// New boots a hypervisor on machine m and creates Dom0 with the given
// memory size in pages.
func New(m *hw.Machine, dom0Frames int) (*Hypervisor, *Domain, error) {
	h := &Hypervisor{
		M:              m,
		comp:           m.Rec.Intern(HypervisorComponent),
		FastPathPolicy: true,
	}
	m.CPU.Work(h.comp, 8000) // monitor boot
	d0, err := h.CreateDomain("dom0", dom0Frames)
	if err != nil {
		return nil, nil, err
	}
	d0.Privileged = true
	return h, d0, nil
}

// CreateDomain builds a new domain with frames pages of pseudo-physical
// memory, mapped 1:1 at the bottom of its virtual space (paravirtualised
// guests see machine frames through a physical-to-machine map; the identity
// layout keeps the simulation readable without changing any accounting).
func (h *Hypervisor) CreateDomain(name string, frames int) (*Domain, error) {
	d, err := h.buildDomain(name, frames)
	if err != nil {
		return nil, err
	}
	for i, f := range d.frames {
		// Guest kernel mappings; guest user pages are re-flagged later.
		d.PT.Map(hw.VPN(i), hw.PTE{Frame: f, Perms: hw.PermRWX, User: true})
	}
	return d, nil
}

// buildDomain is CreateDomain without the identity mappings: the domain
// gets its frames and an empty page table sized for them. Names must be
// unique among live domains, because the name is the frame owner's
// identity in the physical-memory ledger.
func (h *Hypervisor) buildDomain(name string, frames int) (*Domain, error) {
	for _, id := range h.order {
		if h.domains[id].Name == name {
			return nil, fmt.Errorf("%w: %q", ErrDomainExists, name)
		}
	}
	if len(h.domains) > int(^DomID(0)) {
		return nil, ErrDomIDsExhausted
	}
	id := DomID(len(h.domains))
	// The slot is taken even if the build fails, so ids stay aligned with
	// their slots.
	h.domains = append(h.domains, nil)
	d := &Domain{
		ID:   id,
		Name: name,
		PT:   hw.NewPageTableSized(uint16(id)+100, frames), // ASIDs disjoint from mk's
		hyp:  h,
		comp: h.M.Rec.InternJoin("vmm.", name),
	}
	mem, err := h.M.Mem.AllocN(d.comp, frames)
	if err != nil {
		return nil, err
	}
	d.frames = mem
	d.resident = len(mem)
	for gpn, f := range mem {
		h.M.Mem.SetM2P(f, gpn)
	}
	h.M.CPU.Charge(h.comp, trace.KHypercall, 600) // domain-build hypercall
	h.domains[id] = d
	h.order = append(h.order, id)
	return d, nil
}

// Comp returns the monitor's interned trace attribution handle.
func (h *Hypervisor) Comp() trace.Comp { return h.comp }

// Domain returns the domain for id, or nil.
func (h *Hypervisor) Domain(id DomID) *Domain { return h.dom(id) }

// dom returns the domain slot for id (nil when destroyed or never
// allocated).
func (h *Hypervisor) dom(id DomID) *Domain {
	if int(id) < len(h.domains) {
		return h.domains[id]
	}
	return nil
}

// lookup resolves id to a live domain. DestroyDomain reclaims a domain's
// bookkeeping outright (so a create/destroy churn loop stays bounded), which
// means destroyed ids hold a nil slot; the slot watermark keeps their error
// distinct: an id that was once allocated reports ErrDomainDead, an id that
// never existed reports ErrNoSuchDomain.
func (h *Hypervisor) lookup(id DomID) (*Domain, error) {
	if d := h.dom(id); d != nil {
		return d, nil
	}
	if int(id) < len(h.domains) {
		return nil, ErrDomainDead
	}
	return nil, ErrNoSuchDomain
}

// Domains returns live domains in creation order.
func (h *Hypervisor) Domains() []*Domain {
	out := make([]*Domain, 0, len(h.order))
	for _, id := range h.order {
		out = append(out, h.domains[id])
	}
	return out
}

// switchTo installs dom's context: a world switch with full state
// save/restore, address-space switch, and (on untagged TLBs) a flush. A
// switch to the already-current domain is free, matching hardware.
func (h *Hypervisor) switchTo(d *Domain) {
	if h.current == d {
		return
	}
	h.M.CPU.Charge(h.comp, trace.KWorldSwitch, h.M.Arch.Costs.WorldSwitch)
	h.M.CPU.SwitchSpace(h.comp, &d.PT)
	h.current = d
}

// shootdownEntry invalidates one of d's translations on every other pCPU
// hosting a vCPU of d. The monitor runs on the boot CPU, whose TLB the
// caller has already flushed directly; unplaced domains (every
// uniprocessor caller) cost nothing.
func (h *Hypervisor) shootdownEntry(d *Domain, vpn hw.VPN) {
	h.M.ShootdownEntries(0, d.remote, d.PT.ASID(), []hw.VPN{vpn})
}

// kickDomain sends the IPI that accompanies delivering an asynchronous
// event into a domain whose vCPUs live on other pCPUs: the monitor (boot
// CPU) pokes the domain's lowest remote pCPU so its vCPU takes the upcall.
func (h *Hypervisor) kickDomain(d *Domain) {
	if d.remote != 0 {
		h.M.SendIPI(0, d.remote.First())
	}
}

// Hypercall performs a generic control hypercall from dom: ring transition
// into the monitor, validation, op-specific work cost, return. It is the
// paper's primitive 4 ("resource allocation per VM via VMM hypercall
// interface"); the specific hypercalls below (MMUUpdate, grant operations,
// event operations) layer their own semantics over the same entry path.
func (h *Hypervisor) Hypercall(dom DomID, op string, workCost hw.Cycles) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	h.hypercallEntry(d)
	h.M.CPU.Work(h.comp, workCost)
	h.hypercallExit()
	_ = op
	return nil
}

// hypercallEntry charges the guest-kernel -> monitor transition.
func (h *Hypervisor) hypercallEntry(d *Domain) {
	h.switchTo(d) // hypercalls execute in the caller's context
	h.M.CPU.Trap(h.comp, h.M.Arch.HasFastSyscall)
	h.M.CPU.Charge(h.comp, trace.KHypercall, h.M.Arch.Costs.PrivCheck)
}

// hypercallExit returns to the guest kernel ring.
func (h *Hypervisor) hypercallExit() {
	h.M.CPU.ReturnTo(h.comp, hw.Ring1)
}

// PumpIO drives the machine until quiescent or maxRounds, the monitor
// fielding each interrupt (its idle loop). See hw.Machine.PumpIO.
func (h *Hypervisor) PumpIO(maxRounds int) int { return h.M.PumpIO(h.comp, maxRounds) }

// DestroyDomain kills a domain outright (crash injection or shutdown): its
// vCPU never runs again, its event channels are closed, and its memory is
// released. Its grants die with its slot: every grant operation reaches a
// table through the domain table. Other domains observe failures only
// through their own references to it — the E4 blast-radius property.
//
// All per-domain monitor state is reclaimed here, not just marked dead:
// the domain's slot and creation-order entry, and the channel slots of
// every event channel either of whose endpoints was this domain. A
// create/destroy churn loop therefore returns the monitor to its baseline
// footprint (the churn regression test asserts exactly this). Dead is set
// in the same call that empties the slot, so a domain found through the
// table is never dead; holders of a stale *Domain still observe Dead.
func (h *Hypervisor) DestroyDomain(id DomID) error {
	d := h.dom(id)
	if d == nil {
		if int(id) < len(h.domains) {
			return nil // already destroyed and reclaimed: idempotent
		}
		return ErrNoSuchDomain
	}
	d.Dead = true
	for i, ch := range h.ports {
		if ch == nil {
			continue
		}
		if ch.a.dom == id || ch.b.dom == id {
			h.ports[i] = nil
			// Bump the slot's generation so the surviving peer's stale
			// port numbers can never resolve to whatever channel reuses
			// the slot next.
			h.chanGen[i]++
			h.freeChans = append(h.freeChans, i)
		}
	}
	for _, f := range d.frames {
		// Flipped-away slots are holes; only release what the domain
		// still owns. Free clears the frame's M2P word.
		if f != hw.NoFrame && h.M.Mem.Owner(f) == d.comp {
			h.M.Mem.Free(f)
		}
	}
	d.resident = 0
	if h.current == d {
		h.current = nil
	}
	d.dirtyLog = nil
	h.domains[id] = nil
	for i, oid := range h.order {
		if oid == id {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
	h.M.CPU.Charge(d.comp, trace.KFault, 0)
	return nil
}

// Alive reports whether the domain exists and is not dead.
func (h *Hypervisor) Alive(id DomID) bool { return h.dom(id) != nil }

// String summarises the monitor for debugging output.
func (h *Hypervisor) String() string {
	return fmt.Sprintf("hypervisor(%d domains)", len(h.Domains()))
}
