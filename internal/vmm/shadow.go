package vmm

import (
	"errors"
	"fmt"
	"slices"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// Shadow paging: the pure-virtualisation MMU path. An unmodified guest
// writes page-table entries in its own memory as if it owned the hardware;
// the monitor write-protects those pages, takes a fault per update,
// emulates the write, and keeps a shadow table the real MMU walks. Per
// update that costs a trap + decode + validation instead of paravirt's
// batched, explicit hypercall — this gap is precisely why, as the paper
// puts it, VMMs diverged "from pure virtualisation (faithful representation
// of the underlying hardware) to paravirtualisation" (§2.2). Ablation E9g
// measures it.

// ShadowMMU is one domain's trap-and-emulate paging. The shadow itself is
// the domain's real PT (d.PT), which holds only the guest entries the
// monitor has validated.
type ShadowMMU struct {
	h *Hypervisor
	d *Domain
}

// EnableShadowMMU switches a domain to trap-and-emulate paging. The guest
// must stop using MMUUpdate (which is the paravirtual interface) and issue
// GuestPTWrite instead, which models an ordinary store into a
// write-protected page-table page.
func (h *Hypervisor) EnableShadowMMU(dom DomID) (*ShadowMMU, error) {
	d, err := h.lookup(dom)
	if err != nil {
		return nil, err
	}
	// Write-protecting the PT pages is itself monitor work.
	h.M.CPU.Work(h.comp, 800)
	return &ShadowMMU{h: h, d: d}, nil
}

// GuestPTWrite emulates one guest PTE store: the store faults (the page is
// write-protected), the monitor decodes the instruction, validates the new
// entry exactly as MMUUpdate would, updates the shadow, and resumes the
// guest. Invalid entries are dropped from the shadow (the guest sees its
// write "succeed" — real hardware would fault on use).
func (s *ShadowMMU) GuestPTWrite(vpn hw.VPN, gpn int, perms hw.Perm, user bool) error {
	h, d := s.h, s.d
	if d.Dead {
		return ErrDomainDead
	}
	h.switchTo(d)
	// The write-protect fault: full trap into the monitor.
	h.M.CPU.Trap(h.comp, false)
	h.M.CPU.Charge(h.comp, trace.KExceptionBounce, h.M.Arch.Costs.CtxSave)
	// Instruction decode + emulation of the store.
	h.M.CPU.Work(h.comp, 180)
	// Validation identical to the paravirtual path's.
	f := d.FrameAt(gpn)
	if f == hw.NoFrame || !d.OwnsFrame(f) || perms&^hw.PermRWX != 0 {
		d.remapping(vpn)
		d.PT.Unmap(vpn) // shadow must not map what the guest may not have
		h.M.CPU.Charge(h.comp, trace.KShadowPTUpdate, h.M.Arch.Costs.PrivCheck)
		h.M.CPU.ReturnTo(h.comp, hw.Ring1)
		return nil // the *guest* write succeeded; the shadow just ignores it
	}
	d.remapping(vpn)
	d.PT.Map(vpn, hw.PTE{Frame: f, Perms: perms, User: user})
	h.M.CPU.Charge(h.comp, trace.KShadowPTUpdate, h.M.Arch.Costs.PTEUpdate)
	h.M.CPU.FlushTLBEntry(h.comp)
	// A shadow entry changed under every vCPU of the domain: pCPUs other
	// than the monitor's must drop their stale translation by shootdown.
	h.shootdownEntry(d)
	h.M.CPU.ReturnTo(h.comp, hw.Ring1)
	return nil
}

// ---------------------------------------------------------------------------
// Dirty-page logging: the write-fault half of shadow paging repurposed for
// live pre-copy migration. Arming the log write-protects every writable
// mapping of the domain's pages; the first guest store to an armed page
// faults into the monitor, which logs the guest page number, restores the
// page's write permissions and resumes the guest. Each pre-copy round
// re-arms the log and consumes the pages dirtied during the previous round
// — exactly the mechanism behind Xen's log-dirty mode. Pages BalloonIn adds
// while the log is enabled arrive armed, so their first stores are logged
// too.

// ErrDirtyLogActive is returned when enabling a second dirty log on a
// domain whose log is already armed.
var ErrDirtyLogActive = errors.New("vmm: dirty log already enabled")

// DirtyLog tracks which guest pages a domain wrote since the last (re)arm.
// Its state is one byte per guest page, in a slice indexed by guest page
// number that grows with the domain's P2M and is reused from round to
// round, as is the list Rearm returns: once the first round has sized
// them, a round allocates only when it dirties more pages than any round
// before it. A page's byte holds three flags: armed,
// dirty, and whether the log write-protected the page's identity mapping,
// the one at VPN == gpn, which is where a domain build maps each page.
// Every other mapping the log write-protected is kept in a map allocated
// on first use.
type DirtyLog struct {
	h *Hypervisor
	d *Domain

	pages  []pageLog        // gpn -> the log's flags for that page
	more   map[int][]hw.VPN // gpn -> stripped mappings at VPNs other than gpn
	ndirty int              // how many pages are dirty
	round  []int            // the list Rearm returns, reused
}

// pageLog is the log's state for one guest page: a set of flags.
type pageLog uint8

const (
	pageArmed    pageLog = 1 << iota // write-protected: the next store faults
	pageDirty                        // written since the last (re)arm
	pageIdentity                     // the log removed PermW from the mapping at VPN == gpn
)

// EnableDirtyLog arms write-fault-driven dirty-page tracking on a domain
// and returns its log. The domain keeps running; only its first store to
// each page per round pays a fault.
func (h *Hypervisor) EnableDirtyLog(dom DomID) (*DirtyLog, error) {
	d, err := h.lookup(dom)
	if err != nil {
		return nil, err
	}
	if d.dirtyLog != nil {
		return nil, ErrDirtyLogActive
	}
	dl := &DirtyLog{h: h, d: d}
	d.dirtyLog = dl
	h.M.CPU.Work(h.comp, 400) // log-dirty mode switch
	dl.arm()
	return dl, nil
}

// DisableDirtyLog restores the domain's write permissions and detaches the
// log. Destroyed domains are fine: there is nothing left to restore.
func (h *Hypervisor) DisableDirtyLog(dom DomID) {
	d := h.dom(dom)
	if d == nil || d.dirtyLog == nil {
		return
	}
	dl := d.dirtyLog
	for gpn, p := range dl.pages {
		if p&pageArmed != 0 {
			dl.disarm(gpn)
		}
	}
	d.dirtyLog = nil
}

// grow extends the per-gpn state to cover n guest pages, in one
// allocation whether or not the race detector instruments the build (it
// splits an append of a make into two). Entries past the length are
// always zero: the state never shrinks.
func (dl *DirtyLog) grow(n int) {
	if n <= len(dl.pages) {
		return
	}
	if n > cap(dl.pages) {
		p := make([]pageLog, len(dl.pages), max(n, 2*cap(dl.pages)))
		copy(p, dl.pages)
		dl.pages = p
	}
	dl.pages = dl.pages[:n]
}

// arm write-protects every owned page not already protected. Pages still
// armed from a previous round are skipped — their write permissions are
// already stripped, and their record of which mappings to restore on
// disarm must survive untouched. One pass over the page table strips
// PermW from the writable mappings of the pages this round protects,
// resolving each mapped frame to its gpn through the machine's M2P
// (read-only mappings stay read-only when the log disarms), so a round
// costs O(frames + entries), not O(frames × entries).
func (dl *DirtyLog) arm() {
	h, d := dl.h, dl.d
	dl.grow(len(d.frames))
	for vpn, e := range d.PT.All() {
		if e.Perms&hw.PermW == 0 {
			continue
		}
		g := d.gpnOf(e.Frame)
		if g < 0 || dl.pages[g]&pageArmed != 0 {
			continue
		}
		e.Perms &^= hw.PermW
		d.PT.Map(vpn, e)
		h.M.CPU.Charge(h.comp, trace.KShadowPTUpdate, h.M.Arch.Costs.PTEUpdate)
		dl.strip(g, vpn)
	}
	for gpn, f := range d.frames {
		if f != hw.NoFrame {
			dl.pages[gpn] |= pageArmed
		}
	}
	// Stale writable translations must go before protection is real — on
	// every pCPU hosting one of the domain's vCPUs, not just the boot CPU
	// the monitor runs on. This per-round broadcast is why log-dirty mode
	// gets more expensive with core count (E12's dirty-scan workload).
	h.M.CPU.FlushTLB(h.comp)
	h.M.Shootdown(0, d.remote, 1)
}

// strip records that the log removed PermW from gpn's mapping at vpn.
func (dl *DirtyLog) strip(gpn int, vpn hw.VPN) {
	if vpn == hw.VPN(gpn) {
		dl.pages[gpn] |= pageIdentity
		return
	}
	if dl.more == nil {
		dl.more = make(map[int][]hw.VPN)
	}
	dl.more[gpn] = append(dl.more[gpn], vpn)
}

// nstripped returns how many of gpn's mappings the log write-protected.
func (dl *DirtyLog) nstripped(gpn int) int {
	n := len(dl.more[gpn])
	if dl.pages[gpn]&pageIdentity != 0 {
		n++
	}
	return n
}

// unstrip drops the log's record of the mapping at vpn, if it holds one:
// the guest is replacing or removing that mapping (see Domain.remapping).
func (dl *DirtyLog) unstrip(vpn hw.VPN) {
	e, ok := dl.d.PT.Lookup(vpn)
	if !ok {
		return
	}
	g := dl.d.gpnOf(e.Frame)
	if g < 0 || g >= len(dl.pages) {
		return
	}
	if vpn == hw.VPN(g) {
		dl.pages[g] &^= pageIdentity
		return
	}
	vpns := dl.more[g]
	if i := slices.Index(vpns, vpn); i >= 0 {
		if len(vpns) == 1 {
			delete(dl.more, g)
		} else {
			dl.more[g] = slices.Delete(vpns, i, i+1)
		}
	}
}

// mark logs gpn dirty: the guest wrote the page, or its P2M slot changed.
func (dl *DirtyLog) mark(gpn int) {
	dl.grow(gpn + 1)
	if p := &dl.pages[gpn]; *p&pageDirty == 0 {
		*p |= pageDirty
		dl.ndirty++
	}
}

// armNew protects a page BalloonIn just installed at gpn. It has no
// mappings yet, so there is nothing to strip: the guest's first store to
// it faults and is logged like any other armed page's.
func (dl *DirtyLog) armNew(gpn int) {
	dl.grow(gpn + 1)
	dl.pages[gpn] |= pageArmed
}

// forget drops the log's record of gpn's protection when the page leaves
// the P2M (balloon-out, release, a flip's donor side). Its mappings went
// with its frame, so there is nothing left to restore: keeping the record
// would hand PermW to whatever those VPNs map once the slot is refilled.
func (dl *DirtyLog) forget(gpn int) {
	if gpn >= len(dl.pages) {
		return
	}
	delete(dl.more, gpn)
	dl.pages[gpn] &^= pageArmed | pageIdentity
}

// stripped reports whether the log removed PermW from gpn's mapping at
// vpn.
func (dl *DirtyLog) stripped(gpn int, vpn hw.VPN) bool {
	if gpn >= len(dl.pages) {
		return false
	}
	if vpn == hw.VPN(gpn) {
		return dl.pages[gpn]&pageIdentity != 0
	}
	return slices.Contains(dl.more[gpn], vpn)
}

// disarm restores the write permissions the log removed from gpn's
// mappings and takes the page off the armed set.
func (dl *DirtyLog) disarm(gpn int) {
	if dl.pages[gpn]&pageIdentity != 0 {
		dl.restore(hw.VPN(gpn))
	}
	for _, vpn := range dl.more[gpn] {
		dl.restore(vpn)
	}
	dl.forget(gpn)
}

// restore gives the mapping at vpn its PermW back.
func (dl *DirtyLog) restore(vpn hw.VPN) {
	if e, ok := dl.d.PT.Lookup(vpn); ok {
		e.Perms |= hw.PermW
		dl.d.PT.Map(vpn, e)
	}
}

// fault is the write-protect fault path: trap, decode, log, unprotect.
// Each mapping the log write-protected costs one PTE update to restore,
// and a page it protected no mapping of still pays one.
func (dl *DirtyLog) fault(gpn int) {
	h, d := dl.h, dl.d
	h.switchTo(d)
	h.M.CPU.Trap(h.comp, false)
	h.M.CPU.Charge(h.comp, trace.KExceptionBounce, h.M.Arch.Costs.CtxSave)
	h.M.CPU.Work(h.comp, 120) // decode + log-dirty bookkeeping
	dl.mark(gpn)
	nvpns := max(dl.nstripped(gpn), 1)
	dl.disarm(gpn) // later stores to this page are full speed until re-arm
	h.M.CPU.Charge(h.comp, trace.KDirtyLogFault,
		hw.Cycles(nvpns)*h.M.Arch.Costs.PTEUpdate)
	h.M.CPU.ReturnTo(h.comp, hw.Ring1)
}

// Dirty returns the pages written since the last (re)arm, ascending, in a
// list of its own.
func (dl *DirtyLog) Dirty() []int {
	return dl.appendDirty(make([]int, 0, dl.ndirty))
}

// appendDirty appends the dirty pages to out, ascending.
func (dl *DirtyLog) appendDirty(out []int) []int {
	for gpn, p := range dl.pages {
		if p&pageDirty != 0 {
			out = append(out, gpn)
		}
	}
	return out
}

// Rearm collects the current dirty set, clears it and write-protects the
// domain's pages again — one pre-copy round boundary. It returns the pages
// dirtied since the previous arm, ascending, in a list the log reuses: it
// stays valid until the next Rearm.
func (dl *DirtyLog) Rearm() []int {
	if cap(dl.round) < dl.ndirty {
		// One allocation under the race detector too; see grow.
		dl.round = make([]int, 0, max(dl.ndirty, 2*cap(dl.round)))
	}
	dl.round = dl.appendDirty(dl.round[:0])
	for gpn := range dl.pages {
		dl.pages[gpn] &^= pageDirty
	}
	dl.ndirty = 0
	dl.arm()
	return dl.round
}

// GuestMemWrite models a guest store of data into its page gpn at byte
// offset off. With an armed dirty log the first store to a page takes the
// write-protect fault above; otherwise it is ordinary guest work. This is
// the mutation path the live-migration experiments drive.
func (h *Hypervisor) GuestMemWrite(dom DomID, gpn, off int, data []byte) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	f := d.FrameAt(gpn)
	if f == hw.NoFrame || !d.OwnsFrame(f) {
		return ErrFrameNotOwned
	}
	if off < 0 || uint64(off+len(data)) > h.M.Mem.PageSize() {
		return fmt.Errorf("vmm: guest write [%d,%d) outside page", off, off+len(data))
	}
	if dl := d.dirtyLog; dl != nil && gpn < len(dl.pages) && dl.pages[gpn]&pageArmed != 0 {
		dl.fault(gpn)
	}
	h.M.CPU.Work(d.comp, h.M.CPU.CopyCost(uint64(len(data))))
	h.M.Mem.Write(f, off, data)
	return nil
}
