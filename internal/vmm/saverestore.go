package vmm

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"slices"

	"vmmk/internal/hw"
)

// Domain save/restore: the checkpointing half of the VM-migration story
// that made VMMs attractive for management ("treat the OS as a component"
// taken to its logical end — the component becomes a file). A DomainImage
// captures a domain's pseudo-physical memory and page-table skeleton; it
// can be restored on the same hypervisor or a different one (migration).
//
// Event channels and grant entries are deliberately NOT captured: like real
// migration, device connections are torn down and the frontends reconnect
// after restore. What travels is memory and mappings.

// ErrDomainLive is returned when saving a domain that was not paused.
var ErrDomainLive = errors.New("vmm: domain must be paused for save")

// ErrPageSize is returned when a domain would move between machines whose
// pages differ in size: restoring an image saved on one, or migrating from
// one to the other. Guest page numbers name pages of one size, so the move
// is refused before the source is paused, logged or copied.
var ErrPageSize = errors.New("vmm: page size differs between machines")

// checkPageSize refuses a move from pages of size from onto pages of size
// to.
func checkPageSize(from, to uint64) error {
	if from != to {
		return fmt.Errorf("%w: %d-byte pages onto %d-byte pages", ErrPageSize, from, to)
	}
	return nil
}

// savedPTE is one page-table entry in guest terms (gpn, not machine frame).
type savedPTE struct {
	VPN   hw.VPN
	GPN   int
	Perms hw.Perm
	User  bool
}

// DomainImage is a serialised domain.
type DomainImage struct {
	Name       string
	Privileged bool
	// PageSize is the byte size of the saving machine's pages. Only a
	// machine with the same page size can restore the image.
	PageSize uint64
	// Memory holds one entry per guest pseudo-physical page number. A
	// hole is nil. A present page holds its written prefix: the bytes up
	// to the furthest one written, with the rest of the page reading zero,
	// so a present page that reads all zero is an empty, non-nil slice.
	// No entry is longer than PageSize.
	Memory [][]byte
	PT     []savedPTE
}

// Pause stops the domain: it is no longer the current domain and its
// state stays intact, so SaveDomain may capture it.
func (h *Hypervisor) Pause(dom DomID) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	d.paused = true
	if h.current == d {
		h.current = nil
	}
	h.M.CPU.Work(h.comp, 200)
	return nil
}

// Unpause resumes a paused domain.
func (h *Hypervisor) Unpause(dom DomID) error {
	d, err := h.lookup(dom)
	if err != nil {
		return err
	}
	if !d.paused {
		return nil
	}
	d.paused = false
	h.M.CPU.Work(h.comp, 200)
	return nil
}

// Paused reports whether the domain is paused.
func (h *Hypervisor) Paused(dom DomID) bool {
	d := h.dom(dom)
	return d != nil && d.paused
}

// guestPTEs yields d's page-table entries in guest terms (gpn, not machine
// frame), in the table's order. Entries referencing foreign frames (grant
// maps) are dropped, like real migration drops grant mappings.
func (d *Domain) guestPTEs() iter.Seq[savedPTE] {
	return func(yield func(savedPTE) bool) {
		for v, e := range d.PT.All() {
			gpn := d.gpnOf(e.Frame)
			if gpn < 0 {
				continue
			}
			if !yield(savedPTE{VPN: v, GPN: gpn, Perms: e.Perms, User: e.User}) {
				return
			}
		}
	}
}

// capturePT serialises a domain's page table for SaveDomain's image: its
// guest-terms entries, sorted by VPN, so an image does not depend on the
// table's iteration order.
func capturePT(d *Domain) []savedPTE {
	out := make([]savedPTE, 0, d.PT.Len())
	for e := range d.guestPTEs() {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b savedPTE) int { return cmp.Compare(a.VPN, b.VPN) })
	return out
}

// allocShell creates a paused domain with an empty page table and a P2M of
// slots guest pages, the receiving half of restore and live migration:
// each slot hole reports true for stays a hole, and each of the other
// resident slots gets a fresh frame. A page later flipped into the shell
// refills a hole as it would on the source instead of landing past the
// end of the P2M. Without holes, the P2M buildDomain laid out is already
// the shell's.
func (h *Hypervisor) allocShell(name string, privileged bool, slots, resident int, hole func(gpn int) bool) (*Domain, error) {
	if resident == 0 {
		return nil, fmt.Errorf("vmm: domain %q has no memory", name)
	}
	d, err := h.buildDomain(name, resident)
	if err != nil {
		return nil, err
	}
	d.Privileged = privileged
	if resident < slots {
		frames := make([]hw.FrameID, slots)
		next := 0
		for gpn := range frames {
			if hole(gpn) {
				frames[gpn] = hw.NoFrame
				continue
			}
			frames[gpn] = d.frames[next]
			h.M.Mem.SetM2P(frames[gpn], gpn)
			next++
		}
		d.frames = frames
	}
	// Shells start paused, like migrated VMs pre-resume.
	d.paused = true
	return d, nil
}

// SaveDomain captures a paused domain's memory and page table. The copy is
// charged per page — the dominant cost of real checkpointing.
func (h *Hypervisor) SaveDomain(dom DomID) (*DomainImage, error) {
	d, err := h.lookup(dom)
	if err != nil {
		return nil, err
	}
	if !d.paused {
		return nil, ErrDomainLive
	}
	ps := h.M.Mem.PageSize()
	img := &DomainImage{Name: d.Name, Privileged: d.Privileged, PageSize: ps, PT: capturePT(d)}
	size := 0
	for _, f := range d.frames {
		if f != hw.NoFrame {
			size += len(h.M.Mem.Bytes(f))
		}
	}
	// One arena backs every captured prefix; the per-page slices just view
	// into it, which keeps a big save at one allocation. The copy is still
	// charged per whole page.
	arena := make([]byte, 0, size)
	img.Memory = make([][]byte, 0, len(d.frames))
	pages := uint64(0)
	for _, f := range d.frames {
		if f == hw.NoFrame {
			img.Memory = append(img.Memory, nil)
			continue
		}
		start := len(arena)
		arena = append(arena, h.M.Mem.Bytes(f)...)
		img.Memory = append(img.Memory, arena[start:len(arena):len(arena)])
		pages++
	}
	h.M.CPU.WorkN(h.comp, h.M.CPU.CopyCost(ps), pages)
	return img, nil
}

// RestoreDomain materialises an image as a new (paused) domain on this
// hypervisor — which may be a different machine than the one that saved it,
// as long as its pages are the same size (ErrPageSize otherwise). The caller
// unpauses after reconnecting devices.
func (h *Hypervisor) RestoreDomain(img *DomainImage) (*Domain, error) {
	if img == nil || img.Name == "" {
		return nil, fmt.Errorf("vmm: empty domain image")
	}
	ps := h.M.Mem.PageSize()
	if err := checkPageSize(img.PageSize, ps); err != nil {
		return nil, err
	}
	resident := 0
	for gpn, page := range img.Memory {
		if uint64(len(page)) > ps {
			return nil, fmt.Errorf("%w: page %d holds %d bytes", ErrPageSize, gpn, len(page))
		}
		if page != nil {
			resident++
		}
	}
	d, err := h.allocShell(img.Name, img.Privileged, len(img.Memory), resident,
		func(gpn int) bool { return img.Memory[gpn] == nil })
	if err != nil {
		return nil, err
	}
	// Lay pages back down (gpn numbering is the shell's layout). The copy
	// work lands as one batched charge per phase: the cost per page is
	// constant, so the aggregate is cycle-identical to the per-page loop.
	pages := uint64(0)
	for gpn, page := range img.Memory {
		if page == nil {
			continue
		}
		h.M.Mem.Load(d.FrameAt(gpn), page)
		pages++
	}
	h.M.CPU.WorkN(h.comp, h.M.CPU.CopyCost(ps), pages)
	h.mapSaved(d, img.PT, nil, nil)
	return d, nil
}

// mapSaved rebuilds a shell's page table from a skeleton in guest terms,
// through the validated path, and charges one PTE update per entry mapped.
// The skeleton is an image's (pt) for restore, and for live migration the
// source domain's own table (src), read in place. An entry whose page the
// shell lacks is skipped. When the skeleton comes from a source whose
// dirty log is armed, dl names the mappings the log write-protected there:
// they regain PermW, since the protection was the log's, not the guest's.
// Restore passes nil.
func (h *Hypervisor) mapSaved(d *Domain, pt []savedPTE, src *Domain, dl *DirtyLog) {
	mapped := uint64(0)
	mapEntry := func(e savedPTE) {
		f := d.FrameAt(e.GPN)
		if f == hw.NoFrame {
			return
		}
		perms := e.Perms
		if dl != nil && dl.stripped(e.GPN, e.VPN) {
			perms |= hw.PermW
		}
		d.PT.Map(e.VPN, hw.PTE{Frame: f, Perms: perms, User: e.User})
		mapped++
	}
	for _, e := range pt {
		mapEntry(e)
	}
	if src != nil {
		for e := range src.guestPTEs() {
			mapEntry(e)
		}
	}
	h.M.CPU.WorkN(h.comp, h.M.Arch.Costs.PTEUpdate, mapped)
}

// Migrate is pause + save + restore onto a destination hypervisor +
// destroy: the whole-OS mobility that §3.3's "treat the OS as a component"
// enables. It returns the new domain on dst, paused like RestoreDomain's.
// The guest is frozen for the entire copy — the stop-and-copy baseline
// MigrateLive improves on.
//
// A migration the destination refuses (a live domain of that name, or too
// little memory) resumes a source it paused, after the source has paid for
// the image copy; the source's state is as it found it. That includes a
// migration onto the source's own hypervisor, where the guest's own name is
// taken. Machines whose pages differ in size refuse the move before the
// source is paused.
func Migrate(src *Hypervisor, dom DomID, dst *Hypervisor) (*Domain, error) {
	if err := checkPageSize(src.M.Mem.PageSize(), dst.M.Mem.PageSize()); err != nil {
		return nil, err
	}
	wasPaused := src.Paused(dom)
	if err := src.Pause(dom); err != nil {
		return nil, err
	}
	img, err := src.SaveDomain(dom)
	if err != nil {
		return nil, err
	}
	d, err := dst.RestoreDomain(img)
	if err != nil {
		if !wasPaused {
			src.Unpause(dom)
		}
		return nil, err
	}
	if err := src.DestroyDomain(dom); err != nil {
		return nil, err
	}
	return d, nil
}

// ErrMigrationAborted is returned when a live migration cannot finish —
// the link failed or the source domain died mid-copy. The abort is clean:
// the destination shell is destroyed, the dirty log disabled, and a source
// paused for the blackout is resumed. The underlying cause is wrapped.
var ErrMigrationAborted = errors.New("vmm: live migration aborted")

// LiveOpts parameterises a pre-copy live migration.
type LiveOpts struct {
	// MaxRounds bounds the pre-copy rounds before the stop-and-copy
	// finish (default 3).
	MaxRounds int
	// WSSCutoff stops iterating early once the dirty set is this small:
	// the remaining pages are the guest's writable working set, and
	// re-sending them live cannot converge further.
	WSSCutoff int
	// GuestWork, when non-nil, runs the guest's activity concurrent with
	// each pre-copy round (1-based round number). The guest dirties pages
	// through Hypervisor.GuestMemWrite, which the armed dirty log sees.
	GuestWork func(round int)
	// Transport, when non-nil, models the migration link. It is consulted
	// before each page batch crosses — round is the 1-based pre-copy round,
	// or 0 for the final blackout batch — with the number of pages about to
	// move. Returning an error aborts the migration: MigrateLive tears the
	// destination shell down, disables the dirty log, resumes a source it
	// paused, and returns ErrMigrationAborted wrapping the link error.
	Transport func(round, pages int) error
}

// LiveStats reports what a live migration did and what it cost.
type LiveStats struct {
	Rounds     int       // pre-copy rounds actually run
	PagesMoved int       // page transfers in total, re-sends included
	PagesFinal int       // pages copied during the blackout
	Downtime   hw.Cycles // guest-observable pause: src pause→destroy + dst final apply
	Total      hw.Cycles // whole-migration cycles across both machines
}

// MigrateLive moves a running guest with iterative pre-copy: round one
// transfers every page while the guest keeps executing; each further round
// transfers only the pages the dirty log caught since the previous round;
// the final round falls back to pause + stop-and-copy for whatever is
// still dirty (plus the page table) and resumes on the destination. The
// returned domain is paused on dst, exactly like RestoreDomain's — the
// caller reconnects devices and unpauses. Machines whose pages differ in
// size refuse the move with ErrPageSize before anything starts.
func MigrateLive(src *Hypervisor, dom DomID, dst *Hypervisor, opts LiveOpts) (*Domain, *LiveStats, error) {
	if err := checkPageSize(src.M.Mem.PageSize(), dst.M.Mem.PageSize()); err != nil {
		return nil, nil, err
	}
	d, err := src.lookup(dom)
	if err != nil {
		return nil, nil, err
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 3
	}
	dl, err := src.EnableDirtyLog(dom)
	if err != nil {
		return nil, nil, err
	}
	srcT0, dstT0 := src.M.Now(), dst.M.Now()

	// Destination shell with the source's pseudo-physical layout, read
	// from its P2M; it stays paused while pages stream in. Its page table
	// is rebuilt in the blackout.
	shell, err := dst.allocShell(d.Name, d.Privileged, len(d.frames), d.resident,
		func(gpn int) bool { return d.frames[gpn] == hw.NoFrame })
	if err != nil {
		src.DisableDirtyLog(dom)
		return nil, nil, err
	}

	ps := src.M.Mem.PageSize()
	stats := &LiveStats{}
	// abort unwinds a migration that cannot finish: whatever the cause, the
	// destination must not keep a half-filled shell, the source must not
	// keep log-dirty write protection, and a source paused for the blackout
	// must resume. pausedHere distinguishes "we paused it for the blackout"
	// from "the caller handed us a paused domain".
	pausedHere := false
	abort := func(cause error) (*Domain, *LiveStats, error) {
		src.DisableDirtyLog(dom)
		if pausedHere && src.Alive(dom) {
			src.Unpause(dom)
		}
		dst.DestroyDomain(shell.ID)
		return nil, nil, fmt.Errorf("%w: %w", ErrMigrationAborted, cause)
	}
	// send moves guest page gpn across within the round in progress. The
	// dirty log names every P2M slot the guest changed as well as the
	// pages it wrote, so each slot sent also mirrors the source's P2M: a
	// slot filled since the shell was built gets a shell frame, and a slot
	// punched since is punched on the shell too.
	moved := uint64(0)
	send := func(gpn int) error {
		sf, df := d.frames[gpn], shell.FrameAt(gpn)
		switch {
		case sf == hw.NoFrame:
			if df != hw.NoFrame {
				shell.punch(gpn)
				dst.M.Mem.Free(df)
			}
			return nil
		case df == hw.NoFrame:
			var err error
			if df, err = shell.fill(gpn); err != nil {
				return err
			}
		}
		dst.M.Mem.CopyPage(df, src.M.Mem, sf)
		moved++
		return nil
	}
	// sendAll sends the pages gpns lists, then charges the round's copy
	// work as a single batch per machine: both ends pay a fixed cost per
	// page, so the round's aggregate is cycle-identical to charging page
	// by page (the two machines' clocks are independent, and nothing
	// inside a round observes either clock). Round 1 sends its pages with
	// send first and passes no list.
	sendAll := func(gpns []int) error {
		for _, gpn := range gpns {
			if err := send(gpn); err != nil {
				return err
			}
		}
		// Reading out and landing the pages are monitor work on each end.
		src.M.CPU.WorkN(src.comp, src.M.CPU.CopyCost(ps), moved)
		dst.M.CPU.WorkN(dst.comp, dst.M.CPU.CopyCost(ps), moved)
		stats.PagesMoved += int(moved)
		moved = 0
		return nil
	}

	// Pre-copy rounds: the guest runs (and dirties pages) while each
	// round's set crosses; whatever it dirtied becomes the next round's
	// set. Stop when the budget is spent, the dirty set is inside the
	// cutoff, or the writable working set stops shrinking. Round 1 sends
	// every page the source held when the shell was laid out: the shell's
	// P2M, which only send changes, still names exactly those. Each later
	// round sends the list toSend; n is how many pages a round sends.
	var toSend []int
	n := shell.resident
	for round := 1; ; round++ {
		stats.Rounds = round
		if opts.GuestWork != nil {
			opts.GuestWork(round)
			// The guest's activity may include dying (crash, DestroyDomain
			// from the toolstack). Copying out of a dead domain's frames
			// would read memory the ledger has already reclaimed.
			if !src.Alive(dom) {
				return abort(ErrDomainDead)
			}
		}
		if opts.Transport != nil {
			if err := opts.Transport(round, n); err != nil {
				return abort(err)
			}
		}
		if round == 1 {
			for gpn, f := range shell.frames {
				if f == hw.NoFrame {
					continue
				}
				if err := send(gpn); err != nil {
					return abort(err)
				}
			}
		}
		if err := sendAll(toSend); err != nil {
			return abort(err)
		}
		prev := n
		toSend = dl.Rearm()
		n = len(toSend)
		if round >= opts.MaxRounds || n <= opts.WSSCutoff || n >= prev {
			break
		}
	}

	// The blackout: pause, move the remainder and the page table, kill the
	// source copy. Everything in this window is guest-visible downtime.
	downSrc, downDst := src.M.Now(), dst.M.Now()
	pausedHere = !src.Paused(dom)
	if err := src.Pause(dom); err != nil {
		pausedHere = false
		return abort(err)
	}
	if opts.Transport != nil {
		// The link can fail inside the blackout too — the worst case, since
		// the guest is already paused on the source. The abort path resumes
		// it.
		if err := opts.Transport(0, n); err != nil {
			return abort(err)
		}
	}
	if err := sendAll(toSend); err != nil {
		return abort(err)
	}
	stats.PagesFinal = n

	// The page table travels in guest terms, like SaveDomain's skeleton,
	// but mapSaved reads it straight from the source's table: nothing is
	// copied out, and the shell maps the same entries an image would hold.
	dst.mapSaved(shell, nil, d, dl)
	src.DisableDirtyLog(dom)
	if err := src.DestroyDomain(dom); err != nil {
		return nil, nil, err
	}
	stats.Downtime = (src.M.Now() - downSrc) + (dst.M.Now() - downDst)
	stats.Total = (src.M.Now() - srcT0) + (dst.M.Now() - dstT0)
	return shell, stats, nil
}
