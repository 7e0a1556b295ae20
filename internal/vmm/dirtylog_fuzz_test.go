package vmm

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// dlModel is FuzzDirtyLog's reference: the domain's P2M and page table in
// guest terms, and the dirty log's state per guest page kept the plain way,
// with the set of VPNs the log write-protected.
type dlModel struct {
	present  []bool                  // gpn -> the P2M holds a frame
	pt       map[hw.VPN]dlMapping    // the guest's page table
	enabled  bool                    // a dirty log is on
	armed    map[int]bool            // gpn -> write-protected
	dirty    map[int]bool            // gpn -> written or changed since the last arm
	stripped map[int]map[hw.VPN]bool // gpn -> VPNs the log removed PermW from
}

// dlMapping is one page-table entry in guest terms.
type dlMapping struct {
	gpn   int
	perms hw.Perm
}

// reset forgets every dirty-log fact.
func (m *dlModel) reset() {
	m.armed, m.dirty, m.stripped = map[int]bool{}, map[int]bool{}, map[int]map[hw.VPN]bool{}
}

// arm is the log's round boundary: every writable mapping of a page not
// already armed loses PermW and is recorded, then every present page is
// armed.
func (m *dlModel) arm() {
	for vpn, e := range m.pt {
		if e.perms&hw.PermW == 0 || m.armed[e.gpn] {
			continue
		}
		e.perms &^= hw.PermW
		m.pt[vpn] = e
		if m.stripped[e.gpn] == nil {
			m.stripped[e.gpn] = map[hw.VPN]bool{}
		}
		m.stripped[e.gpn][vpn] = true
	}
	for gpn, ok := range m.present {
		if ok {
			m.armed[gpn] = true
		}
	}
}

// disarm gives PermW back to exactly the mappings the log stripped from
// gpn and takes the page off the armed set.
func (m *dlModel) disarm(gpn int) {
	for vpn := range m.stripped[gpn] {
		e := m.pt[vpn]
		e.perms |= hw.PermW
		m.pt[vpn] = e
	}
	delete(m.stripped, gpn)
	delete(m.armed, gpn)
}

// remap drops the log's record of the mapping at vpn, which the guest is
// replacing or removing.
func (m *dlModel) remap(vpn hw.VPN) {
	if e, ok := m.pt[vpn]; ok {
		delete(m.stripped[e.gpn], vpn)
	}
}

// punch takes gpn out of the P2M: its mappings go with its frame, the log
// forgets its protection, and an enabled log marks the slot dirty.
func (m *dlModel) punch(gpn int) {
	m.present[gpn] = false
	for vpn, e := range m.pt {
		if e.gpn == gpn {
			delete(m.pt, vpn)
		}
	}
	delete(m.stripped, gpn)
	delete(m.armed, gpn)
	if m.enabled {
		m.dirty[gpn] = true
	}
}

// dirtyList returns the dirty pages, ascending.
func (m *dlModel) dirtyList() []int {
	return slices.Sorted(maps.Keys(m.dirty))
}

// FuzzDirtyLog runs streams of guest writes, Rearm, MMUUpdate remaps and
// unmaps (writable and read-only aliases, and mappings of one page at
// another page's identity VPN), BalloonOut, BalloonIn, ReleaseFrame and
// dirty-log enable/disable over a small domain, and checks the compact log
// against dlModel after every operation: the page table entry by entry
// (PermW comes back on exactly the stripped mappings), each page's armed
// flag and stripped mappings, Dirty() ascending and equal to the model,
// Rearm's list, each write fault's charge of max(n, 1) PTE updates for n
// stripped mappings, and Hypervisor.Audit.
//
// Each op is three bytes: an opcode and two operands. A VPN operand below
// 0x80 names an identity VPN, 0 to 11 (past the P2M's end too, which
// BalloonIn grows toward); from 0x80 it names one of four alias VPNs
// from 0x100. A gpn operand names 0 to 11.
func FuzzDirtyLog(f *testing.F) {
	// Page 2 mapped writable at its identity VPN and at 0x100, then armed,
	// written, rearmed, written again and disabled.
	f.Add([]byte{2, 0x80, 2, 8, 0, 0, 0, 2, 0, 1, 0, 0, 0, 2, 0, 8, 0, 0})
	// Page 3 mapped read-only at page 5's identity VPN while armed; then
	// page 5 and page 3 are written.
	f.Add([]byte{2, 0x81, 3, 8, 0, 0, 3, 5, 3, 0, 5, 0, 0, 3, 0, 1, 0, 0})
	// A page with two stripped aliases ballooned out and refilled while
	// armed, then released.
	f.Add([]byte{2, 0x80, 7, 2, 0x82, 7, 8, 0, 0, 5, 0, 0, 6, 0, 0, 0, 7, 0, 7, 7, 0, 1, 0, 0})
	const pages, span, aliases = 8, 12, 4
	vpn := func(b byte) hw.VPN {
		if b < 0x80 {
			return hw.VPN(b % span)
		}
		return 0x100 + hw.VPN(b%aliases)
	}
	gpn := func(b byte) int { return int(b % span) }
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 256, LogCap: 64})
		h, _, err := New(m, 32)
		if err != nil {
			t.Fatal(err)
		}
		d, err := h.CreateDomain("guest", pages)
		if err != nil {
			t.Fatal(err)
		}
		model := &dlModel{present: make([]bool, pages), pt: map[hw.VPN]dlMapping{}}
		model.reset()
		for g := range pages {
			model.present[g] = true
			model.pt[hw.VPN(g)] = dlMapping{gpn: g, perms: hw.PermRWX}
		}
		var dl *DirtyLog
		pte := uint64(m.Arch.Costs.PTEUpdate)
		for i := 0; i+3 <= len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			var desc string
			switch op % 9 {
			case 0: // a guest store
				g := gpn(a)
				desc = fmt.Sprintf("write gpn %d", g)
				faults := m.Rec.Counts(trace.KDirtyLogFault)
				err := h.GuestMemWrite(d.ID, g, 0, []byte{op, a})
				if g >= len(model.present) || !model.present[g] {
					if !errors.Is(err, ErrFrameNotOwned) {
						t.Fatalf("op %d (%s): err = %v, want ErrFrameNotOwned", i, desc, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("op %d (%s): %v", i, desc, err)
				}
				want := uint64(0)
				if model.enabled && model.armed[g] {
					want = 1
				}
				if got := m.Rec.Counts(trace.KDirtyLogFault) - faults; got != want {
					t.Fatalf("op %d (%s): %d faults, want %d", i, desc, got, want)
				}
				if want == 1 {
					want := uint64(max(len(model.stripped[g]), 1)) * pte
					if got := lastFaultCycles(t, m); got != want {
						t.Fatalf("op %d (%s): the fault charged %d cycles for %d stripped mappings, want %d",
							i, desc, got, len(model.stripped[g]), want)
					}
					model.dirty[g] = true
					model.disarm(g)
				}
			case 1: // a round boundary, or enable
				if !model.enabled {
					desc = "enable"
					dl = enableLog(t, h, d, model)
					break
				}
				desc = "rearm"
				want := model.dirtyList()
				if got := dl.Rearm(); !slices.Equal(got, want) {
					t.Fatalf("op %d (%s) = %v, want %v", i, desc, got, want)
				}
				clear(model.dirty)
				model.arm()
			case 2, 3: // map gpn b at vpn a, writable or read-only
				v, g, perms := vpn(a), gpn(b), hw.PermRW
				if op%9 == 3 {
					perms = hw.PermR
				}
				desc = fmt.Sprintf("map %#x -> gpn %d %v", v, g, perms)
				err := h.MMUUpdate(d.ID, v, g, perms, true)
				if g >= len(model.present) || !model.present[g] {
					if !errors.Is(err, ErrBadPTE) {
						t.Fatalf("op %d (%s): err = %v, want ErrBadPTE", i, desc, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("op %d (%s): %v", i, desc, err)
				}
				model.remap(v)
				model.pt[v] = dlMapping{gpn: g, perms: perms}
			case 4:
				v := vpn(a)
				desc = fmt.Sprintf("unmap %#x", v)
				if err := h.MMUUnmap(d.ID, v); err != nil {
					t.Fatalf("op %d (%s): %v", i, desc, err)
				}
				model.remap(v)
				delete(model.pt, v)
			case 5: // highest pages first
				n := 1 + int(a%2)
				desc = fmt.Sprintf("balloon out %d", n)
				want := 0
				for g := len(model.present) - 1; g >= 0 && want < n; g-- {
					if model.present[g] {
						model.punch(g)
						want++
					}
				}
				if got, err := h.BalloonOut(d.ID, n); err != nil || got != want {
					t.Fatalf("op %d (%s) = %d, %v; want %d", i, desc, got, err, want)
				}
			case 6: // holes first, then past the end
				n := 1 + int(a%2)
				desc = fmt.Sprintf("balloon in %d", n)
				if len(model.present) >= span {
					break
				}
				for range n {
					g := slices.Index(model.present, false)
					if g < 0 {
						g = len(model.present)
						model.present = append(model.present, false)
					}
					model.present[g] = true
					if model.enabled {
						model.dirty[g], model.armed[g] = true, true
					}
				}
				if got, err := h.BalloonIn(d.ID, n); err != nil || got != n {
					t.Fatalf("op %d (%s) = %d, %v", i, desc, got, err)
				}
			case 7:
				g := gpn(a)
				desc = fmt.Sprintf("release gpn %d", g)
				if g >= len(model.present) || !model.present[g] {
					break
				}
				if err := d.ReleaseFrame(d.FrameAt(g)); err != nil {
					t.Fatalf("op %d (%s): %v", i, desc, err)
				}
				model.punch(g)
			case 8:
				if !model.enabled {
					desc = "enable"
					dl = enableLog(t, h, d, model)
					break
				}
				desc = "disable"
				h.DisableDirtyLog(d.ID)
				for g := range model.armed {
					model.disarm(g)
				}
				model.enabled, dl = false, nil
				model.reset()
			}
			checkDirtyLog(t, fmt.Sprintf("op %d (%s)", i, desc), h, d, dl, model)
		}
	})
}

// enableLog turns the log on in both the hypervisor and the model.
func enableLog(t *testing.T, h *Hypervisor, d *Domain, model *dlModel) *DirtyLog {
	t.Helper()
	dl, err := h.EnableDirtyLog(d.ID)
	if err != nil {
		t.Fatal(err)
	}
	model.enabled = true
	model.reset()
	model.arm()
	return dl
}

// lastFaultCycles returns the cycles of the newest dirty-log fault in the
// machine's event log.
func lastFaultCycles(t *testing.T, m *hw.Machine) uint64 {
	t.Helper()
	log := m.Rec.Log()
	for i := len(log) - 1; i >= 0; i-- {
		if log[i].Kind == trace.KDirtyLogFault {
			return log[i].Cycles
		}
	}
	t.Fatal("no dirty-log fault in the event log")
	return 0
}

// checkDirtyLog compares the domain's page table and its log with the
// model, and audits the hypervisor.
func checkDirtyLog(t *testing.T, where string, h *Hypervisor, d *Domain, dl *DirtyLog, model *dlModel) {
	t.Helper()
	if err := h.Audit(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if got, want := len(d.Frames()), len(model.present); got != want {
		t.Fatalf("%s: P2M of %d slots, model %d", where, got, want)
	}
	for g, ok := range model.present {
		if has := d.FrameAt(g) != hw.NoFrame; has != ok {
			t.Fatalf("%s: gpn %d holds a frame: %v, model %v", where, g, has, ok)
		}
	}
	if d.PT.Len() != len(model.pt) {
		t.Fatalf("%s: page table holds %d entries, model %d", where, d.PT.Len(), len(model.pt))
	}
	for v, e := range d.PT.All() {
		want, ok := model.pt[v]
		if !ok || e.Frame != d.FrameAt(want.gpn) || e.Perms != want.perms {
			t.Fatalf("%s: %#x maps frame %d %v; model gpn %d (frame %d) %v, mapped %v",
				where, v, e.Frame, e.Perms, want.gpn, d.FrameAt(want.gpn), want.perms, ok)
		}
	}
	if (d.dirtyLog != nil) != model.enabled || d.dirtyLog != dl {
		t.Fatalf("%s: domain's log %p, want %p (enabled %v)", where, d.dirtyLog, dl, model.enabled)
	}
	if dl == nil {
		return
	}
	got := dl.Dirty()
	if !slices.IsSorted(got) || !slices.Equal(got, model.dirtyList()) {
		t.Fatalf("%s: Dirty() = %v, model %v", where, got, model.dirtyList())
	}
	for g := range len(dl.pages) {
		if armed := dl.pages[g]&pageArmed != 0; armed != model.armed[g] {
			t.Fatalf("%s: gpn %d armed %v, model %v", where, g, armed, model.armed[g])
		}
		if n := dl.nstripped(g); n != len(model.stripped[g]) {
			t.Fatalf("%s: gpn %d has %d stripped mappings, model %v", where, g, n, model.stripped[g])
		}
		for v := range model.stripped[g] {
			if !dl.stripped(g, v) {
				t.Fatalf("%s: gpn %d: the log lost its record of %#x", where, g, v)
			}
		}
	}
	for g := len(dl.pages); g < len(model.present); g++ {
		if model.armed[g] || len(model.stripped[g]) > 0 {
			t.Fatalf("%s: gpn %d is past the log's %d pages but armed or stripped in the model", where, g, len(dl.pages))
		}
	}
}
