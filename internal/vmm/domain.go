package vmm

import (
	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// GuestHooks are the paravirtualised guest kernel's registered entry
// points, the moral equivalent of the vectors a guest registers with Xen at
// boot. Package vmmos provides real implementations.
type GuestHooks struct {
	// OnSyscall handles a guest-user system call in the guest kernel.
	// Work it performs must be charged to the domain's component.
	OnSyscall func(no uint32, args []uint64) []uint64
	// OnEvent handles an event-channel upcall for a local port.
	OnEvent func(port Port)
	// OnVIRQ handles a virtual interrupt (timer, etc.).
	OnVIRQ func(virq int)
}

// Domain is one virtual machine: pseudo-physical memory, a validated page
// table, a grant table, event-channel state and the guest kernel's hooks.
// It holds its page table by value, so a domain is one heap object.
type Domain struct {
	ID         DomID
	Name       string
	PT         hw.PageTable
	Privileged bool // Dom0: may touch real devices and other domains
	Dead       bool // destroyed; only a stale *Domain can see it set
	paused     bool // not running, state intact (save/migrate)

	Hooks GuestHooks

	frames   []hw.FrameID // the P2M: guest page -> machine frame; NoFrame marks a hole
	resident int          // P2M slots holding a frame
	grants   grantTable
	hyp      *Hypervisor

	// fastPathOK tracks whether the trap-gate syscall shortcut is
	// currently safe for this domain (see LoadGuestSegment).
	fastPathOK bool

	// dirtyLog, when non-nil, write-protects this domain's pages and logs
	// guest stores (live pre-copy migration; see shadow.go).
	dirtyLog *DirtyLog

	// remote is the set of pCPUs other than 0 hosting one of its vCPUs:
	// the monitor runs on pCPU 0, so shootdowns and event-delivery kicks
	// target these. PlaceVCPUs sets it; empty is the uniprocessor
	// arrangement every unplaced domain has, one implicit vCPU on pCPU 0
	// with no IPIs and no shootdowns.
	remote hw.CPUSet

	comp trace.Comp // "vmm."+Name, interned at creation; owns its frames
}

// Comp returns the domain's interned trace attribution handle.
func (d *Domain) Comp() trace.Comp { return d.comp }

// Frames returns the domain's pseudo-physical frame list (index = guest
// pseudo-physical page number).
func (d *Domain) Frames() []hw.FrameID { return d.frames }

// FrameAt returns the machine frame backing guest page gpn, or NoFrame.
func (d *Domain) FrameAt(gpn int) hw.FrameID {
	if gpn < 0 || gpn >= len(d.frames) {
		return hw.NoFrame
	}
	return d.frames[gpn]
}

// gpnOf returns the guest page f backs in d's P2M, or -1 when f is not in
// it. The machine's M2P names a gpn for every frame some live P2M holds;
// the P2M check confirms that the P2M is d's.
func (d *Domain) gpnOf(f hw.FrameID) int {
	if g := d.hyp.M.Mem.M2P(f); g >= 0 && g < len(d.frames) && d.frames[g] == f {
		return g
	}
	return -1
}

// install puts frame f in P2M slot gpn, which must be a hole or the end.
// With a dirty log enabled the slot is logged dirty, so a live migration in
// progress sends the new page.
func (d *Domain) install(gpn int, f hw.FrameID) {
	if gpn == len(d.frames) {
		d.frames = append(d.frames, f)
	} else {
		d.frames[gpn] = f
	}
	d.hyp.M.Mem.SetM2P(f, gpn)
	d.resident++
	if dl := d.dirtyLog; dl != nil {
		dl.mark(gpn)
	}
}

// fill allocates a frame for d and installs it in P2M slot gpn, which must
// be a hole or lie at or past the end; the slots it skips past the end
// become holes.
func (d *Domain) fill(gpn int) (hw.FrameID, error) {
	f, err := d.hyp.M.Mem.Alloc(d.comp)
	if err != nil {
		return hw.NoFrame, err
	}
	for len(d.frames) < gpn {
		d.frames = append(d.frames, hw.NoFrame)
	}
	d.install(gpn, f)
	return f, nil
}

// punch empties P2M slot gpn, leaving a hole for reuse. The frame it held
// is the caller's to release or hand on. With a dirty log enabled the slot
// is logged dirty, so a live migration in progress clears it on the
// destination too.
func (d *Domain) punch(gpn int) {
	d.hyp.M.Mem.SetM2P(d.frames[gpn], -1)
	d.frames[gpn] = hw.NoFrame
	d.resident--
	if dl := d.dirtyLog; dl != nil {
		dl.forget(gpn)
		dl.mark(gpn)
	}
}

// OwnsFrame reports whether the machine frame currently belongs to d
// according to the physical-memory ledger. A destroyed domain owns
// nothing, even once a new domain of the same name (and so the same
// ledger owner) holds its old frames.
func (d *Domain) OwnsFrame(f hw.FrameID) bool {
	if f == hw.NoFrame || d.Dead {
		return false
	}
	return d.hyp.M.Mem.Owner(f) == d.comp
}

// ReleaseFrame returns an owned frame to the machine pool (balloon-out),
// punching a hole in the pseudo-physical map. Guests use this to return
// pages received by flipping once consumed.
func (d *Domain) ReleaseFrame(f hw.FrameID) error {
	if d.Dead {
		return ErrDomainDead
	}
	if !d.OwnsFrame(f) {
		return ErrFrameNotOwned
	}
	d.removeFrame(f)
	d.PT.UnmapFrame(f)
	d.hyp.M.Mem.Free(f)
	d.hyp.M.CPU.Work(d.comp, 60)
	return nil
}

// PlaceVCPUs gives a domain one virtual CPU pinned to each physical CPU
// in pcpus. Placement is the SMP control-plane operation Dom0's toolstack
// performs at domain build: shadow-page-table invalidation shoots down
// every placed pCPU, and event delivery to a remotely placed domain pays
// an IPI. Those costs read only which pCPUs host a vCPU, so that set is
// all the monitor keeps. An empty set resets the domain to the unplaced
// uniprocessor arrangement.
func (h *Hypervisor) PlaceVCPUs(dom DomID, pcpus hw.CPUSet) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	if pcpus&^h.M.AllCPUs() != 0 {
		return ErrBadPCPU
	}
	d.remote = pcpus &^ 1
	if pcpus != 0 {
		h.M.CPU.Work(h.comp, 200) // toolstack placement hypercall
	}
	return nil
}

// MMUUpdate is the validated page-table-update hypercall (paper primitive
// 5: "resource allocation within the VM via hardware page-table
// virtualisation"). The monitor checks that the domain owns the frame it is
// mapping, and that perms lie within PermRWX, before installing the entry —
// the essence of shadow/direct paravirtual paging.
func (h *Hypervisor) MMUUpdate(dom DomID, vpn hw.VPN, gpn int, perms hw.Perm, user bool) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	h.hypercallEntry(d)
	defer h.hypercallExit()

	f := d.FrameAt(gpn)
	if f == hw.NoFrame || !d.OwnsFrame(f) || perms&^hw.PermRWX != 0 {
		h.M.CPU.Charge(h.comp, trace.KShadowPTUpdate, h.M.Arch.Costs.PrivCheck)
		return ErrBadPTE
	}
	d.remapping(vpn)
	d.PT.Map(vpn, hw.PTE{Frame: f, Perms: perms, User: user})
	h.M.CPU.Charge(h.comp, trace.KShadowPTUpdate, h.M.Arch.Costs.PTEUpdate)
	return nil
}

// MMUUnmap removes a guest mapping with the required TLB invalidation —
// locally, and by shootdown on every other pCPU hosting one of the
// domain's vCPUs.
func (h *Hypervisor) MMUUnmap(dom DomID, vpn hw.VPN) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	h.hypercallEntry(d)
	defer h.hypercallExit()
	d.remapping(vpn)
	d.PT.Unmap(vpn)
	h.M.CPU.Charge(h.comp, trace.KShadowPTUpdate, h.M.Arch.Costs.PTEUpdate)
	h.M.CPU.FlushTLBEntry(h.comp)
	h.shootdownEntry(d)
	return nil
}

// remapping tells an enabled dirty log that the guest is replacing or
// removing its mapping at vpn: whatever protection the log put on the old
// mapping is not the new one's to get back.
func (d *Domain) remapping(vpn hw.VPN) {
	if dl := d.dirtyLog; dl != nil {
		dl.unstrip(vpn)
	}
}

// SetHooks registers the guest kernel's entry points (done once at guest
// boot by vmmos).
func (d *Domain) SetHooks(hooks GuestHooks) { d.Hooks = hooks }
