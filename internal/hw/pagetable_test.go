package hw

import (
	"fmt"
	"maps"
	"runtime"
	"testing"
	"unsafe"
)

// TestPageTableUnmapFramesWithoutIndex pins the batch unmap's contract:
// every mapping of every listed frame goes (aliases and sparse entries
// included), the count comes back, and the frame filter stays unbuilt.
func TestPageTableUnmapFramesWithoutIndex(t *testing.T) {
	pt := NewPageTableSized(1, 8)
	pt.Map(1, PTE{Frame: 3, Perms: PermRW})
	pt.Map(2, PTE{Frame: 3, Perms: PermR})
	pt.Map(0x2000, PTE{Frame: 3, Perms: PermR})
	pt.Map(4, PTE{Frame: 8, Perms: PermR})
	pt.Map(5, PTE{Frame: 9, Perms: PermR})
	if n := pt.UnmapFrames([]FrameID{9, 3}); n != 4 {
		t.Fatalf("unmapped %d entries, want 4", n)
	}
	if pt.filter != nil {
		t.Fatal("batch unmap built the frame filter")
	}
	if pt.Len() != 1 {
		t.Fatalf("len %d after the batch, want 1", pt.Len())
	}
	if _, ok := pt.Lookup(4); !ok {
		t.Fatal("an unlisted frame's mapping went too")
	}
	if n := pt.UnmapFrames([]FrameID{3, 7}); n != 0 || pt.Len() != 1 {
		t.Fatalf("a batch of unmapped frames removed %d entries, len %d", n, pt.Len())
	}
}

// TestPageTableUnmapFramesThenReverseLookups: on a table whose frame
// filter a reverse lookup already built, the reverse lookups after a batch
// unmap see exactly what the batch left, and a frame the batch unmapped
// and Map then mapped again is found.
func TestPageTableUnmapFramesThenReverseLookups(t *testing.T) {
	pt := NewPageTableSized(1, 8)
	pt.Map(1, PTE{Frame: 3, Perms: PermRW})
	pt.Map(2, PTE{Frame: 3, Perms: PermR})
	pt.Map(0x2000, PTE{Frame: 3, Perms: PermR})
	pt.Map(4, PTE{Frame: 8, Perms: PermR})
	if n := pt.FramesMapped(3); n != 3 {
		t.Fatalf("frame 3 mapped %d times, want 3", n)
	}
	if n := pt.UnmapFrames([]FrameID{3}); n != 3 {
		t.Fatalf("unmapped %d entries, want 3", n)
	}
	if pt.FramesMapped(3) != 0 || pt.FramesMapped(8) != 1 {
		t.Fatalf("after the batch: frame 3 x%d, frame 8 x%d", pt.FramesMapped(3), pt.FramesMapped(8))
	}
	pt.Map(5, PTE{Frame: 3, Perms: PermR})
	if n := pt.UnmapFrame(3); n != 1 {
		t.Fatalf("UnmapFrame after the batch removed %d entries, want 1", n)
	}
}

// TestSizedPageTableGrowsIntoItsSlack: a sized table allocates the hint's
// entries and nothing more. Its span reaches 64 VPNs past the hint, and
// the dense array grows into that slack only when Map reaches past the
// hint; VPNs at or past the span still go to the sparse map.
func TestSizedPageTableGrowsIntoItsSlack(t *testing.T) {
	const hint = 40
	pt := NewPageTableSized(1, hint)
	for v := range VPN(hint) {
		pt.Map(v, PTE{Frame: FrameID(v), Perms: PermRW})
	}
	if len(pt.dense) != hint || pt.span != hint+64 {
		t.Fatalf("after mapping the hint: %d dense entries spanning %d VPNs, want %d spanning %d",
			len(pt.dense), pt.span, hint, hint+64)
	}
	pt.Map(hint, PTE{Frame: 1, Perms: PermR})
	if n := len(pt.dense); n <= hint || n > hint+64 {
		t.Fatalf("a map at VPN %d left %d dense entries, want more than %d and at most %d", hint, n, hint, hint+64)
	}
	pt.Map(hint+63, PTE{Frame: 2, Perms: PermR})
	if n := len(pt.dense); n != hint+64 {
		t.Fatalf("a map at the span's last VPN left %d dense entries, want %d", n, hint+64)
	}
	pt.Map(hint+64, PTE{Frame: 3, Perms: PermR})
	if len(pt.dense) != hint+64 || len(pt.sparse) != 1 {
		t.Fatalf("a map at the span went to %d dense entries and %d sparse ones, want %d and 1",
			len(pt.dense), len(pt.sparse), hint+64)
	}
	for _, v := range []VPN{0, hint - 1, hint, hint + 63, hint + 64} {
		if _, ok := pt.Lookup(v); !ok {
			t.Fatalf("VPN %d is not mapped", v)
		}
	}
	if pt.Len() != hint+3 {
		t.Fatalf("Len = %d, want %d", pt.Len(), hint+3)
	}
}

// TestUnmappedFrameUnmapAllocatesNothing: UnmapFrame of a frame the table
// never mapped answers from the frame filter. The first lookup on a table
// allocates the filter and nothing else; later ones allocate nothing at
// all.
func TestUnmappedFrameUnmapAllocatesNothing(t *testing.T) {
	const entries, runs = 256, 101 // AllocsPerRun's warm-up run, then 100
	table := func() *PageTable {
		pt := NewPageTableSized(1, entries)
		for v := range VPN(entries) {
			pt.Map(v, PTE{Frame: FrameID(v), Perms: PermRW})
		}
		return &pt
	}
	fresh := make([]*PageTable, runs)
	for i := range fresh {
		fresh[i] = table()
	}
	i := 0
	if n := testing.AllocsPerRun(runs-1, func() {
		if fresh[i].UnmapFrame(entries+FrameID(i)) != 0 {
			t.Fatal("UnmapFrame removed a mapping of a frame the table never mapped")
		}
		i++
	}); n > 2 {
		t.Errorf("the first UnmapFrame on a table allocates %.1f times, want at most 2 (the filter)", n)
	}
	pt := table()
	if n := testing.AllocsPerRun(runs-1, func() {
		if pt.UnmapFrame(entries+FrameID(i)) != 0 || pt.FramesMapped(NoFrame) != 0 {
			t.Fatal("a frame the table never mapped has mappings")
		}
		i++
	}); n != 0 {
		t.Errorf("UnmapFrame of a never-mapped frame allocates %.1f times", n)
	}
	for _, p := range append(fresh, pt) {
		if p.filter == nil {
			t.Fatal("an UnmapFrame of a never-mapped frame built no frame filter")
		}
	}
	if n := pt.UnmapFrame(7); n != 1 || pt.Len() != entries-1 {
		t.Fatalf("UnmapFrame of a mapped frame removed %d mappings, leaving %d", n, pt.Len())
	}
}

// TestMappedFrameUnmapAllocatesNothing: on tables whose frame filter
// exists, UnmapFrame of a mapped frame scans the table in place, so it
// allocates nothing, and it removes exactly that frame's mappings: its
// dense entry and its alias in the sparse map.
func TestMappedFrameUnmapAllocatesNothing(t *testing.T) {
	const entries, runs, alias = 64, 101, VPN(0x1000) // AllocsPerRun's warm-up run, then 100
	tables := make([]*PageTable, runs)
	for i := range tables {
		pt := NewPageTableSized(1, entries)
		for v := range VPN(entries) {
			pt.Map(v, PTE{Frame: FrameID(v), Perms: PermRW})
		}
		pt.Map(alias, PTE{Frame: FrameID(i % entries), Perms: PermR})
		if pt.FramesMapped(NoFrame) != 0 { // builds the filter
			t.Fatal("NoFrame is mapped")
		}
		tables[i] = &pt
	}
	i := 0
	if n := testing.AllocsPerRun(runs-1, func() {
		if tables[i].UnmapFrame(FrameID(i%entries)) != 2 {
			t.Fatal("UnmapFrame did not remove both mappings of its frame")
		}
		i++
	}); n != 0 {
		t.Errorf("UnmapFrame of a mapped frame allocates %.1f times", n)
	}
	for i, pt := range tables {
		f := FrameID(i % entries)
		_, dense := pt.Lookup(VPN(f))
		_, sparse := pt.Lookup(alias)
		if dense || sparse || pt.FramesMapped(f) != 0 || pt.Len() != entries-1 {
			t.Fatalf("table %d after UnmapFrame(%d): VPN %d mapped %v, alias mapped %v, %d mappings left",
				i, f, f, dense, sparse, pt.Len())
		}
	}
}

// TestTopFrameLookupAllocatesUnderOneKiB is the frame filter's size gate:
// a filter is built and grown to at most as many words as its table has
// entries. The first FramesMapped and UnmapFrame on a 2-entry table that
// maps the highest frame an entry holds, twice or beside frame 0, answer
// from a scan and allocate at most 1 KiB, where a filter reaching that
// frame takes 16 MiB. A Map of that frame into a 64-entry table whose
// filter is built drops the filter instead of growing it, and once the
// mapping is gone the next lookup builds the filter again.
func TestTopFrameLookupAllocatesUnderOneKiB(t *testing.T) {
	const top, limit = FrameID(1<<FrameBits - 1), 1024
	for _, other := range []FrameID{top, 0} {
		var first, removed, after int
		b := heapBytes(func() {
			pt := NewPageTableSized(1, 8)
			pt.Map(3, PTE{Frame: top, Perms: PermRW})
			pt.Map(0x1000, PTE{Frame: other, Perms: PermR})
			first = pt.FramesMapped(top)
			if pt.filter != nil {
				t.Fatalf("a 2-entry table mapping frames %d and %d built a %d-word filter", top, other, len(pt.filter.mapped))
			}
			removed, after = pt.UnmapFrame(top), pt.FramesMapped(top)
		})
		want := 1
		if other == top {
			want = 2
		}
		if first != want || removed != want || after != 0 {
			t.Fatalf("frames %d and %d: FramesMapped %d, UnmapFrame %d, then FramesMapped %d; want %d, %d, 0",
				top, other, first, removed, after, want, want)
		}
		if b > limit {
			t.Errorf("frames %d and %d: a table and its first reverse lookups allocated %d bytes, want at most %d", top, other, b, limit)
		}
	}

	const entries = 64
	pt := NewPageTableSized(1, entries)
	for v := range VPN(entries) {
		pt.Map(v, PTE{Frame: FrameID(v), Perms: PermRW})
	}
	if pt.FramesMapped(1) != 1 || pt.filter == nil {
		t.Fatal("a 64-entry identity table built no frame filter")
	}
	var n int
	if b := heapBytes(func() { pt.Map(0x1000, PTE{Frame: top, Perms: PermR}); n = pt.FramesMapped(top) }); b > limit || n != 1 {
		t.Errorf("mapping frame %d into a filtered table allocated %d bytes and maps it %d times, want at most %d and 1", top, b, n, limit)
	}
	if pt.filter != nil {
		t.Fatalf("mapping frame %d grew the filter to %d words for %d entries", top, len(pt.filter.mapped), pt.Len())
	}
	if pt.UnmapFrame(top) != 1 || pt.FramesMapped(2) != 1 || pt.filter == nil || len(pt.filter.mapped) != 1 {
		t.Fatal("once frame 2^27-1 was unmapped, a lookup did not build a 1-word filter again")
	}
}

// heapBytes returns the fewest heap bytes fn allocated over three runs.
func heapBytes(fn func()) uint64 {
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestPageTableSize: the frame filter hangs off one pointer, so the table
// a domain or space carries stays 64 bytes, and a dense entry packs a
// page's mapping in 4 bytes.
func TestPageTableSize(t *testing.T) {
	if n := unsafe.Sizeof(PageTable{}); n != 64 {
		t.Fatalf("PageTable is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(pte(0)); n != 4 {
		t.Fatalf("a dense entry is %d bytes, want 4", n)
	}
}

// ptModel is the reference page table: a plain map.
type ptModel map[VPN]PTE

func (m ptModel) unmapFrame(f FrameID) int {
	n := 0
	for v, e := range m {
		if e.Frame == f {
			delete(m, v)
			n++
		}
	}
	return n
}

// FuzzPageTable runs Map/Unmap/Lookup/Len/UnmapFrame/UnmapFrames streams
// over dense, boundary and sparse VPNs with aliased frames, before and
// after the frame filter is built, and checks the whole table against a
// plain-map model after every op. The Len op also looks up frames the
// stream never maps, which builds the filter; from then on every op
// repeats those lookups. Once an UnmapFrame or a sweep op has run, every
// op counts each frame's mappings with FramesMapped against the model,
// which catches a Map that left a filter bit clear. Each stream runs on
// two tables at once: a sized one, whose dense array grows from its hint's
// 8 entries as Map reaches into its 72-VPN span, and a NewPageTable one,
// whose dense array grows from 16 entries as Map reaches into its 256-VPN
// span. Frames alias among six low ones and the highest frame an entry
// holds, whose number fills every bit of the entry's frame field.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 2, 2, 3, 4, 1, 2, 3, 0, 9, 2, 3, 3, 2, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 0, 0x80, 2, 1, 5, 2, 0, 0, 0, 0x50, 2, 3, 4, 2, 5, 1})
	f.Add([]byte{0, 71, 1, 3, 0, 72, 1, 3, 0, 0x8f, 1, 3, 11, 1, 0, 0, 6, 0, 0, 0})
	const asid, hint, frames, top = 1, 8, 6, FrameID(1<<FrameBits - 1)
	f.Fuzz(func(t *testing.T, ops []byte) {
		sized, unsized := NewPageTableSized(asid, hint), NewPageTable(asid)
		tables := []*PageTable{&sized, &unsized}
		models := []ptModel{{}, {}}
		swept, filtered := false, false
		// Frames the stream never maps: one in the filter's first word,
		// one past the words the mapped frames need, and NoFrame.
		unmapped := []FrameID{frames, 64*4 + 1, NoFrame}
		// VPNs below 0x80 cover the sized table's hint, its growth into
		// the span, the span's edge and the sparse map just past it, and
		// the unsized table's growth steps. Bytes 0xa8..0xb7 give VPNs
		// 248..263, astride the unsized table's span; no committed seed
		// uses that window for a VPN, so they decode as before. The rest
		// land far out in the sparse map.
		vpn := func(b byte) VPN {
			switch {
			case b < 0x80:
				return VPN(b)
			case b >= 0xa8 && b < 0xb8:
				return 0xf8 + VPN(b-0xa8)
			}
			return 0x1000 + VPN(b&0x0f)
		}
		// Byte 0xff gives the top frame; no committed seed uses it for a
		// frame, so they decode as before.
		frame := func(b byte) FrameID {
			if b == 0xff {
				return top
			}
			return FrameID(b % frames)
		}
		mappable := []FrameID{top}
		for f := range FrameID(frames) {
			mappable = append(mappable, f)
		}
		for i := 0; i+4 <= len(ops); i += 4 {
			op, a, b, c := ops[i], ops[i+1], ops[i+2], ops[i+3]
			for k, pt := range tables {
				model := models[k]
				var desc string
				switch op % 7 {
				case 0:
					e := PTE{Frame: frame(b), Perms: Perm(c % 8), User: c&8 != 0}
					pt.Map(vpn(a), e)
					model[vpn(a)] = e
					desc = fmt.Sprintf("map %#x -> %+v", vpn(a), e)
				case 1:
					pt.Unmap(vpn(a))
					delete(model, vpn(a))
					desc = fmt.Sprintf("unmap %#x", vpn(a))
				case 2:
					got, ok := pt.Lookup(vpn(a))
					want, wok := model[vpn(a)]
					if ok != wok || got != want {
						t.Fatalf("op %d, table %d: lookup %#x = %+v, %v; model %+v, %v", i, k, vpn(a), got, ok, want, wok)
					}
					desc = "lookup"
				case 3:
					if got, want := pt.UnmapFrame(frame(a)), model.unmapFrame(frame(a)); got != want {
						t.Fatalf("op %d, table %d: UnmapFrame(%d) removed %d, model %d", i, k, frame(a), got, want)
					}
					swept = true
					desc = fmt.Sprintf("unmap frame %d", frame(a))
				case 4:
					fs := []FrameID{frame(a), frame(b), frame(c)}[:1+op/7%3]
					want := 0
					for _, f := range fs {
						want += model.unmapFrame(f)
					}
					if got := pt.UnmapFrames(fs); got != want {
						t.Fatalf("op %d, table %d: UnmapFrames(%v) removed %d, model %d", i, k, fs, got, want)
					}
					if !swept && !filtered && pt.filter != nil {
						t.Fatalf("op %d, table %d: UnmapFrames built the frame filter", i, k)
					}
					desc = fmt.Sprintf("unmap frames %v", fs)
				case 5:
					swept = true // the FramesMapped sweep below builds the filter
					desc = "sweep frames"
				case 6:
					if pt.Len() != len(model) {
						t.Fatalf("op %d, table %d: Len = %d, model %d", i, k, pt.Len(), len(model))
					}
					filtered = true // the lookups below build the filter
					desc = "len, look up unmapped frames"
				}
				where := fmt.Sprintf("op %d, table %d (%s)", i, k, desc)
				if filtered {
					for _, f := range unmapped {
						if n, m := pt.UnmapFrame(f), pt.FramesMapped(f); n != 0 || m != 0 {
							t.Fatalf("%s: never-mapped frame %d: UnmapFrame = %d, FramesMapped = %d", where, f, n, m)
						}
					}
				}
				if swept {
					for _, f := range mappable {
						want := 0
						for _, e := range model {
							if e.Frame == f {
								want++
							}
						}
						if got := pt.FramesMapped(f); got != want {
							t.Fatalf("%s: FramesMapped(%d) = %d, model %d", where, f, got, want)
						}
					}
				}
				checkPageTable(t, where, pt, model)
			}
		}
	})
}

// checkPageTable compares every observable of pt with the model.
func checkPageTable(t *testing.T, where string, pt *PageTable, model ptModel) {
	t.Helper()
	if pt.Len() != len(model) {
		t.Fatalf("%s: Len = %d, model %d", where, pt.Len(), len(model))
	}
	seen := ptModel{}
	for v, e := range pt.All() {
		if _, dup := seen[v]; dup {
			t.Fatalf("%s: All visited %#x twice", where, v)
		}
		seen[v] = e
	}
	if !maps.Equal(seen, model) {
		t.Fatalf("%s: All saw %v, model %v", where, seen, model)
	}
	for v, want := range model {
		if got, ok := pt.Lookup(v); !ok || got != want {
			t.Fatalf("%s: lookup %#x = %+v, %v; model %+v", where, v, got, ok, want)
		}
	}
}

// BenchmarkPageTableMapLookup is one Map and one Lookup, cycling through a
// 64-page identity region (the dense array) or a grant window far above
// it (the sparse map).
func BenchmarkPageTableMapLookup(b *testing.B) {
	for _, bc := range []struct {
		name string
		base VPN
	}{{"dense", 0}, {"sparse", 0x1000}} {
		b.Run(bc.name, func(b *testing.B) {
			pt := NewPageTableSized(1, 64)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				v := bc.base + VPN(i%64)
				pt.Map(v, PTE{Frame: FrameID(i % 64), Perms: PermRW})
				if _, ok := pt.Lookup(v); !ok {
					b.Fatal("mapping lost")
				}
				i++
			}
		})
	}
}
