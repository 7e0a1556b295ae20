package hw

import (
	"bytes"
	"fmt"
	"testing"

	"vmmk/internal/trace"
)

// peek returns what f reads as without scrubbing it: a stale or untouched
// page reads as zeros. Tests use it to observe contents without disturbing
// the lazy state under test.
func peek(m *PhysMem, f FrameID) []byte {
	if m.zero(f) {
		return make([]byte, m.pageSize)
	}
	return m.data[f]
}

func TestPhysMemFreedFrameReadsZeroWithoutNewPage(t *testing.T) {
	m := NewPhysMem(4, 64)
	a := trace.NewRegistry().Intern("a")
	f, _ := m.Alloc(a)
	page := m.Data(f)
	copy(page, "secret")
	m.Free(f)
	if !m.stale[f] {
		t.Fatal("Free did not mark the page stale")
	}
	if page[0] != 's' {
		t.Fatal("Free zeroed the page eagerly")
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	g, _ := m.Alloc(a)
	if g != f {
		t.Fatalf("free stack is not LIFO: got frame %d, want %d", g, f)
	}
	got := m.Data(g)
	if &got[0] != &page[0] {
		t.Fatal("Data allocated a new page for a recycled frame")
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("recycled frame reads %q, want zeros", got[:8])
	}
}

func TestPhysMemResetMarksOwnedPagesStale(t *testing.T) {
	m := NewPhysMem(8, 64)
	reg := trace.NewRegistry()
	a, b := reg.Intern("a"), reg.Intern("b")
	fs, _ := m.AllocN(a, 5)
	for _, f := range fs {
		m.Data(f)[3] = 0xAA
	}
	m.Transfer(fs[1], b)
	m.Reset()
	if m.FreeFrames() != 8 || m.OwnedBy(a) != 0 || m.OwnedBy(b) != 0 {
		t.Fatalf("after Reset: free %d, a %d, b %d", m.FreeFrames(), m.OwnedBy(a), m.OwnedBy(b))
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	if f, _ := m.Alloc(a); f != 0 {
		t.Fatalf("first frame after Reset = %d, want 0", f)
	}
	if m.Data(0)[3] != 0 {
		t.Fatal("reset frame kept its contents")
	}
}

func TestPhysMemCopyPage(t *testing.T) {
	reg := trace.NewRegistry()
	a := reg.Intern("a")
	src, dst := NewPhysMem(4, 64), NewPhysMem(4, 64)
	written, untouched, freed := mustAlloc(t, src, a), mustAlloc(t, src, a), mustAlloc(t, src, a)
	copy(src.Data(written), "payload")
	copy(src.Data(freed), "gone")
	src.Free(freed)

	d0, d1, d2 := mustAlloc(t, dst, a), mustAlloc(t, dst, a), mustAlloc(t, dst, a)
	copy(dst.Data(d1), "old bytes")
	copy(dst.Data(d2), "old bytes")

	// A zero source never allocates: the untouched destination stays
	// pageless, the written one is only marked stale.
	dst.CopyPage(d0, src, untouched)
	dst.CopyPage(d1, src, freed)
	if dst.data[d0] != nil {
		t.Fatal("zero-source copy allocated a page")
	}
	if !dst.stale[d1] || !bytes.Equal(peek(dst, d1), make([]byte, 64)) {
		t.Fatal("zero-source copy left old bytes readable")
	}
	// A written source overwrites whatever the destination held.
	dst.CopyPage(d2, src, written)
	if got := dst.Data(d2); string(got[:9]) != "payload\x00\x00" {
		t.Fatalf("copied page reads %q", got[:9])
	}
	// Copying within one memory works the same way.
	src.CopyPage(untouched, src, written)
	if got := peek(src, untouched); string(got[:7]) != "payload" {
		t.Fatalf("same-memory copy reads %q", got[:7])
	}
	for _, m := range []*PhysMem{src, dst} {
		if err := m.Audit(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("copy between page sizes did not panic")
		}
	}()
	NewPhysMem(1, 128).CopyPage(0, src, written)
}

func mustAlloc(t *testing.T, m *PhysMem, owner trace.Comp) FrameID {
	t.Helper()
	f, err := m.Alloc(owner)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPhysMemAuditCatchesCorruption breaks each conservation law by hand
// and checks Audit names it.
func TestPhysMemAuditCatchesCorruption(t *testing.T) {
	a := trace.NewRegistry().Intern("a")
	for _, tc := range []struct {
		name    string
		corrupt func(m *PhysMem, owned, free FrameID)
		want    string
	}{
		{"dirty free frame", func(m *PhysMem, _, free FrameID) {
			m.data[free] = make([]byte, m.pageSize)
			m.data[free][7] = 1
		}, "reads"},
		{"duplicate on free stack", func(m *PhysMem, _, free FrameID) {
			m.free = append(m.free, free)
		}, "twice"},
		{"owned frame on free stack", func(m *PhysMem, owned, _ FrameID) {
			m.free = append(m.free, owned)
		}, "owned by"},
		{"lost frame", func(m *PhysMem, _, _ FrameID) {
			m.free = m.free[:len(m.free)-1]
		}, "neither owned nor free"},
		{"miscounted owner", func(m *PhysMem, _, _ FrameID) {
			m.owned[a]++
		}, "counted at"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewPhysMem(4, 64)
			owned := mustAlloc(t, m, a)
			m.Data(owned)[0] = 1
			free := FrameID(3)
			if err := m.Audit(); err != nil {
				t.Fatalf("clean memory: %v", err)
			}
			tc.corrupt(m, owned, free)
			err := m.Audit()
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("Audit = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// physModel is FuzzPhysMem's reference: the plainest memory that meets
// PhysMem's contract. It zeroes a page the moment it is freed and names
// owners by string, so any difference from PhysMem is a lazy-scrubbing or
// owner-handle bug.
type physModel struct {
	pages [][]byte
	owner []string
	free  []FrameID
}

func newPhysModel(frames, pageSize int) *physModel {
	pm := &physModel{pages: make([][]byte, frames), owner: make([]string, frames)}
	for i := range pm.pages {
		pm.pages[i] = make([]byte, pageSize)
	}
	pm.reset()
	return pm
}

func (pm *physModel) reset() {
	pm.free = pm.free[:0]
	for i := len(pm.pages) - 1; i >= 0; i-- {
		pm.free = append(pm.free, FrameID(i))
		pm.owner[i] = ""
		clear(pm.pages[i])
	}
}

func (pm *physModel) release(f FrameID) {
	pm.owner[f] = ""
	clear(pm.pages[f])
	pm.free = append(pm.free, f)
}

// FuzzPhysMem drives two memories and their reference models through a
// byte-decoded sequence of Alloc, Free, Transfer, Data-write, Copy,
// CopyPage (within and across memories) and Reset, and after every op
// checks contents, owners, per-owner counts, the free count and Audit.
func FuzzPhysMem(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 3, 0, 0, 5, 9, 5, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 1, 0, 7, 1, 0, 1, 0, 5, 1, 0, 0, 1, 6, 0})
	f.Add([]byte{0, 0, 0, 3, 0, 0, 1, 8, 5, 0, 0, 0, 0, 6, 1, 2, 0, 0, 3})
	const frames, pageSize = 6, 32
	names := []string{"vmm.dom0", "vmm.domU1", "mk.srv"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		reg := trace.NewRegistry()
		comps := make([]trace.Comp, len(names))
		for i, n := range names {
			comps[i] = reg.Intern(n)
		}
		mems := []*PhysMem{NewPhysMem(frames, pageSize), NewPhysMem(frames, pageSize)}
		models := []*physModel{newPhysModel(frames, pageSize), newPhysModel(frames, pageSize)}
		arg := func(i int) int {
			if i < len(ops) {
				return int(ops[i])
			}
			return 0
		}
		for i := 0; i < len(ops); i += 5 {
			op, k := ops[i]%7, arg(i+1)%2
			m, pm := mems[k], models[k]
			f1, f2 := FrameID(arg(i+2)%frames), FrameID(arg(i+3)%frames)
			var desc string
			switch op {
			case 0: // Alloc
				o := arg(i+2) % len(names)
				got, err := m.Alloc(comps[o])
				if len(pm.free) == 0 {
					if err != ErrOutOfMemory {
						t.Fatalf("op %d: Alloc on a full memory = %d, %v", i, got, err)
					}
					break
				}
				want := pm.free[len(pm.free)-1]
				pm.free = pm.free[:len(pm.free)-1]
				pm.owner[want] = names[o]
				if err != nil || got != want {
					t.Fatalf("op %d: Alloc = %d, %v; want frame %d", i, got, err, want)
				}
				desc = fmt.Sprintf("alloc %d to %s", got, names[o])
			case 1: // Free
				if pm.owner[f1] == "" {
					break
				}
				m.Free(f1)
				pm.release(f1)
				desc = fmt.Sprintf("free %d", f1)
			case 2: // Transfer
				o := arg(i+3) % len(names)
				if pm.owner[f1] == "" {
					break
				}
				m.Transfer(f1, comps[o])
				pm.owner[f1] = names[o]
				desc = fmt.Sprintf("transfer %d to %s", f1, names[o])
			case 3: // Data write
				if pm.owner[f1] == "" {
					break
				}
				off, v := arg(i+3)%pageSize, byte(arg(i+4))
				m.Data(f1)[off] = v
				pm.pages[f1][off] = v
				desc = fmt.Sprintf("write %d[%d]=%d", f1, off, v)
			case 4: // Copy
				if pm.owner[f1] == "" {
					break
				}
				n := uint64(arg(i+4) % (pageSize + 8))
				if got := m.Copy(f1, f2, n); got != min(n, pageSize) {
					t.Fatalf("op %d: Copy moved %d bytes, want %d", i, got, min(n, pageSize))
				}
				copy(pm.pages[f1][:min(n, pageSize)], pm.pages[f2])
				desc = fmt.Sprintf("copy %d <- %d (%d bytes)", f1, f2, n)
			case 5: // CopyPage, from either memory
				sk := arg(i+4) % 2
				if pm.owner[f1] == "" {
					break
				}
				m.CopyPage(f1, mems[sk], f2)
				copy(pm.pages[f1], models[sk].pages[f2])
				desc = fmt.Sprintf("copypage %d <- mem%d:%d", f1, sk, f2)
			case 6: // Reset
				m.Reset()
				pm.reset()
				desc = "reset"
			}
			for j, m := range mems {
				checkAgainstModel(t, fmt.Sprintf("op %d (mem%d %s), mem%d", i, k, desc, j), m, models[j], reg, comps)
			}
		}
	})
}

func checkAgainstModel(t *testing.T, where string, m *PhysMem, pm *physModel, reg *trace.Registry, comps []trace.Comp) {
	t.Helper()
	if err := m.Audit(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if m.FreeFrames() != len(pm.free) {
		t.Fatalf("%s: %d free frames, model %d", where, m.FreeFrames(), len(pm.free))
	}
	count := map[string]int{}
	for f := range pm.pages {
		if got := reg.Name(m.Owner(FrameID(f))); got != pm.owner[f] {
			t.Fatalf("%s: frame %d owned by %q, model %q", where, f, got, pm.owner[f])
		}
		count[pm.owner[f]]++
		if got := peek(m, FrameID(f)); !bytes.Equal(got, pm.pages[f]) {
			t.Fatalf("%s: frame %d reads %x, model %x", where, f, got, pm.pages[f])
		}
	}
	for _, c := range comps {
		if got, want := m.OwnedBy(c), count[reg.Name(c)]; got != want {
			t.Fatalf("%s: %s owns %d frames, model %d", where, reg.Name(c), got, want)
		}
	}
}

func BenchmarkPhysMemAllocFree(b *testing.B) {
	m := NewPhysMem(4096, 4096)
	c := trace.NewRegistry().Intern("bench")
	f, _ := m.Alloc(c)
	m.Data(f)[0] = 1 // a touched page: Free must not pay to zero it
	m.Free(f)
	b.ReportAllocs()
	for b.Loop() {
		f, _ := m.Alloc(c)
		m.Free(f)
	}
}

// BenchmarkPhysMemReset is one pooled-machine lifetime in miniature: 256
// of 4096 frames allocated and written, then Reset. A scrub that Reset
// defers is paid by the next op's writes, so each op counts it once.
func BenchmarkPhysMemReset(b *testing.B) {
	m := NewPhysMem(4096, 4096)
	c := trace.NewRegistry().Intern("bench")
	b.ReportAllocs()
	for b.Loop() {
		fs, _ := m.AllocN(c, 256)
		for _, f := range fs {
			m.Data(f)[0] = 1
		}
		m.Reset()
	}
}

func BenchmarkCopyPage(b *testing.B) {
	c := trace.NewRegistry().Intern("bench")
	for _, zero := range []bool{true, false} {
		name := "nonzero-source"
		if zero {
			name = "zero-source"
		}
		b.Run(name, func(b *testing.B) {
			src, dst := NewPhysMem(1, 4096), NewPhysMem(1, 4096)
			sf, _ := src.Alloc(c)
			df, _ := dst.Alloc(c)
			if !zero {
				src.Data(sf)[9] = 1
			}
			b.ReportAllocs()
			for b.Loop() {
				dst.CopyPage(df, src, sf)
			}
		})
	}
}
