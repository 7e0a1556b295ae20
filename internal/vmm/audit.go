package vmm

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// Audit checks the monitor's P2M bookkeeping against the physical-memory
// ledger and returns the first violation it finds, or nil. It checks that
//   - no two live domains share a name (the name is the frame owner);
//   - every frame in a live P2M is owned by its domain;
//   - the M2P and the live P2Ms agree in both directions;
//   - each domain's resident count equals a scan of its P2M;
//   - the grant table's free list names every revoked grant no foreign
//     mapping holds exactly once, and nothing else.
//
// Audit allocates and walks every table and every frame of the machine,
// so it is a test oracle, not something the simulation calls.
func (h *Hypervisor) Audit() error {
	byComp := make(map[trace.Comp]*Domain, len(h.order))
	for _, id := range h.order {
		d := h.domains[id]
		if other, ok := byComp[d.comp]; ok {
			return fmt.Errorf("vmm audit: domains %d and %d are both named %q", other.ID, d.ID, d.Name)
		}
		byComp[d.comp] = d
		n := 0
		for gpn, f := range d.frames {
			if f == hw.NoFrame {
				continue
			}
			n++
			if o := h.M.Mem.Owner(f); o != d.comp {
				return fmt.Errorf("vmm audit: %s gpn %d: frame %d is owned by %q",
					d.Name, gpn, f, h.M.Rec.Registry().Name(o))
			}
			if h.M.Mem.M2P(f) != gpn {
				return fmt.Errorf("vmm audit: %s gpn %d: frame %d is missing from the M2P", d.Name, gpn, f)
			}
		}
		if n != d.resident {
			return fmt.Errorf("vmm audit: %s holds %d frames, resident count says %d", d.Name, n, d.resident)
		}
		if err := d.grants.audit(); err != nil {
			return fmt.Errorf("vmm audit: %s %w", d.Name, err)
		}
	}
	for f := range hw.FrameID(h.M.Mem.TotalFrames()) {
		g := h.M.Mem.M2P(f)
		if g < 0 {
			continue
		}
		if d := byComp[h.M.Mem.Owner(f)]; d == nil || d.FrameAt(g) != f {
			return fmt.Errorf("vmm audit: M2P maps frame %d to gpn %d, which no live P2M holds", f, g)
		}
	}
	return nil
}

// audit checks a live domain's grant table: the free list names each
// revoked entry without foreign mappings once, and no other entry.
func (g *grantTable) audit() error {
	listed := make([]bool, len(g.entries))
	for next := g.free; next != 0; next = int(g.entries[next-1].frame) {
		slot := next - 1
		if slot < 0 || slot >= len(g.entries) {
			return fmt.Errorf("grant free list names slot %d of %d", slot, len(g.entries))
		}
		if listed[slot] {
			return fmt.Errorf("grant free list names slot %d twice", slot)
		}
		listed[slot] = true
	}
	for slot, e := range g.entries {
		if free := e.revoked && e.mapped == 0; free != listed[slot] {
			return fmt.Errorf("grant slot %d (revoked %v, %d mappings) is listed free: %v", slot, e.revoked, e.mapped, listed[slot])
		}
	}
	return nil
}
