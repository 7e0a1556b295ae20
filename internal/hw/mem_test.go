package hw

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"vmmk/internal/trace"
)

// peek returns the whole page f reads as, through Read, which zero-fills
// past the prefix.
func peek(m *PhysMem, f FrameID) []byte {
	page := make([]byte, m.pageSize)
	m.Read(f, 0, page)
	return page
}

func TestPhysMemFreedFrameReadsZeroWithoutNewPage(t *testing.T) {
	m := NewPhysMem(4, 64)
	a := trace.NewRegistry().Intern("a")
	f, _ := m.Alloc(a)
	m.Write(f, 0, []byte("secret"))
	p := m.prefix(f)
	buf := p[:cap(p)]
	m.Free(f)
	if n := len(m.Bytes(f)); n != 0 {
		t.Fatalf("Free left a %d-byte prefix", n)
	}
	if buf[0] != 's' {
		t.Fatal("Free zeroed the buffer eagerly")
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	g, _ := m.Alloc(a)
	if g != f {
		t.Fatalf("free stack is not LIFO: got frame %d, want %d", g, f)
	}
	m.Write(g, 3, []byte{'x'})
	if &m.prefix(g)[0] != &buf[0] {
		t.Fatal("a write allocated a new buffer for a recycled frame")
	}
	if got := m.Bytes(g); string(got) != "\x00\x00\x00x" {
		t.Fatalf("recycled frame reads %q, want zeros before the new byte", got)
	}
	if got := peek(m, g); !bytes.Equal(got[4:], make([]byte, 60)) {
		t.Fatalf("recycled frame's whole page reads %q past the write", got[4:12])
	}
}

func TestPhysMemResetTruncatesOwnedPrefixes(t *testing.T) {
	m := NewPhysMem(8, 64)
	reg := trace.NewRegistry()
	a, b := reg.Intern("a"), reg.Intern("b")
	fs, _ := m.AllocN(a, 5)
	for _, f := range fs {
		m.Write(f, 3, []byte{0xAA})
	}
	m.Transfer(fs[1], b)
	m.Reset()
	if m.FreeFrames() != 8 || m.OwnedBy(a) != 0 || m.OwnedBy(b) != 0 {
		t.Fatalf("after Reset: free %d, a %d, b %d", m.FreeFrames(), m.OwnedBy(a), m.OwnedBy(b))
	}
	for _, f := range fs {
		if p := m.prefix(f); len(p) != 0 || cap(p) == 0 {
			t.Fatalf("frame %d after Reset: %d-byte prefix in a %d-byte buffer; want empty, kept", f, len(p), cap(p))
		}
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	if f, _ := m.Alloc(a); f != 0 {
		t.Fatalf("first frame after Reset = %d, want 0", f)
	}
	if peek(m, 0)[3] != 0 {
		t.Fatal("reset frame kept its contents")
	}
}

func TestPhysMemCopyPage(t *testing.T) {
	reg := trace.NewRegistry()
	a := reg.Intern("a")
	src, dst := NewPhysMem(4, 64), NewPhysMem(4, 64)
	written, untouched, freed := mustAlloc(t, src, a), mustAlloc(t, src, a), mustAlloc(t, src, a)
	src.Write(written, 0, []byte("payload"))
	src.Write(freed, 0, []byte("gone"))
	src.Free(freed)

	d0, d1, d2 := mustAlloc(t, dst, a), mustAlloc(t, dst, a), mustAlloc(t, dst, a)
	dst.Write(d1, 0, []byte("old bytes"))
	dst.Write(d2, 0, []byte("old bytes"))

	// A zero source never allocates: the untouched destination stays
	// bufferless, the written one only loses its prefix.
	dst.CopyPage(d0, src, untouched)
	dst.CopyPage(d1, src, freed)
	if dst.prefix(d0) != nil {
		t.Fatal("zero-source copy allocated a buffer")
	}
	if len(dst.prefix(d1)) != 0 || !bytes.Equal(peek(dst, d1), make([]byte, 64)) {
		t.Fatal("zero-source copy left old bytes readable")
	}
	// A written source moves its prefix and overwrites whatever the
	// destination held.
	dst.CopyPage(d2, src, written)
	if got := dst.Bytes(d2); string(got) != "payload" {
		t.Fatalf("copied prefix is %q, want the source's", got)
	}
	if got := peek(dst, d2); string(got[:9]) != "payload\x00\x00" {
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

func TestPhysMemRecycledFrameRewrittenShorter(t *testing.T) {
	m := NewPhysMem(2, 64)
	a := trace.NewRegistry().Intern("a")
	f := mustAlloc(t, m, a)
	m.Write(f, 0, bytes.Repeat([]byte{0xFF}, 40))
	m.Free(f)
	g := mustAlloc(t, m, a)
	m.Write(g, 0, []byte("ab"))
	want := append([]byte("ab"), make([]byte, 62)...)
	if got := peek(m, g); !bytes.Equal(got, want) {
		t.Fatalf("rewritten frame reads %x", got)
	}
}

func TestPhysMemLoadShorterZeroesTail(t *testing.T) {
	m := NewPhysMem(2, 64)
	a := trace.NewRegistry().Intern("a")
	f := mustAlloc(t, m, a)
	m.Write(f, 0, bytes.Repeat([]byte{0xFF}, 20))
	m.Load(f, []byte("xy"))
	if got := m.Bytes(f); string(got) != "xy" {
		t.Fatalf("prefix after a short Load is %q", got)
	}
	want := append([]byte("xy"), make([]byte, 62)...)
	if got := peek(m, f); !bytes.Equal(got, want) {
		t.Fatalf("frame after a short Load reads %x", got)
	}
	m.Load(f, nil)
	if got := peek(m, f); !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("frame after an empty Load reads %x", got)
	}
}

// TestPhysMemGrowthInsideBufferHidesOldBytes regrows a truncated prefix
// inside its buffer every way a caller can, and checks that none of the
// buffer's old bytes ever read back.
func TestPhysMemGrowthInsideBufferHidesOldBytes(t *testing.T) {
	a := trace.NewRegistry().Intern("a")
	for _, tc := range []struct {
		name string
		grow func(m *PhysMem, f FrameID)
	}{
		{"write past the prefix", func(m *PhysMem, f FrameID) { m.Write(f, 30, []byte{1}) }},
		{"write overlapping the prefix", func(m *PhysMem, f FrameID) { m.Write(f, 0, []byte{1, 2, 3}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewPhysMem(1, 64)
			f := mustAlloc(t, m, a)
			m.Write(f, 0, bytes.Repeat([]byte{0xFF}, 64))
			m.Load(f, []byte{9})
			buf := m.prefix(f)
			tc.grow(m, f)
			if &m.prefix(f)[0] != &buf[0] {
				t.Fatal("growth inside the buffer allocated a new one")
			}
			for i, b := range peek(m, f) {
				if b == 0xFF {
					t.Fatalf("byte %d reads an old 0xFF after growth: %x", i, peek(m, f))
				}
			}
		})
	}
}

func TestPhysMemBufferSizing(t *testing.T) {
	m := NewPhysMem(3, 4096)
	a := trace.NewRegistry().Intern("a")
	small, packet, grown := mustAlloc(t, m, a), mustAlloc(t, m, a), mustAlloc(t, m, a)
	m.Write(small, 1, []byte{1})
	m.Write(packet, 0, bytes.Repeat([]byte{1}, 1500))
	m.Write(grown, 0, []byte{1})
	m.Write(grown, 100, []byte{1})
	for _, tc := range []struct {
		f           FrameID
		prefix, buf int
	}{{small, 2, minPrefix}, {packet, 1500, 1500}, {grown, 101, 4096}} {
		if p := m.prefix(tc.f); len(p) != tc.prefix || cap(p) != tc.buf {
			t.Errorf("frame %d: %d-byte prefix in a %d-byte buffer, want %d in %d", tc.f, len(p), cap(p), tc.prefix, tc.buf)
		}
	}
	// A page smaller than minPrefix never gets a buffer past its end.
	tiny := NewPhysMem(1, 32)
	f := mustAlloc(t, tiny, a)
	tiny.Write(f, 0, []byte{1})
	if c := cap(tiny.prefix(f)); c != 32 {
		t.Fatalf("32-byte page got a %d-byte buffer", c)
	}
}

// TestPhysMemWriteReadAtPageEnd pins the copy-like edges: a range is cut
// at the page end, an empty write stores nothing, and an offset past the
// page end panics.
func TestPhysMemWriteReadAtPageEnd(t *testing.T) {
	m := NewPhysMem(1, 64)
	f := mustAlloc(t, m, trace.NewRegistry().Intern("a"))
	if n := m.Write(f, 60, []byte("abcdefgh")); n != 4 {
		t.Fatalf("Write across the page end stored %d bytes, want 4", n)
	}
	if n := m.Write(f, 64, []byte("x")); n != 0 || len(m.Bytes(f)) != 64 {
		t.Fatalf("Write at the page end stored %d bytes, prefix %d", n, len(m.Bytes(f)))
	}
	m.Load(f, nil)
	if n := m.Write(f, 10, nil); n != 0 || len(m.Bytes(f)) != 0 {
		t.Fatalf("empty Write stored %d bytes and left a %d-byte prefix", n, len(m.Bytes(f)))
	}
	m.Write(f, 62, []byte("yz"))
	b := []byte("--------")
	if n := m.Read(f, 58, b); n != 6 || string(b) != "\x00\x00\x00\x00yz--" {
		t.Fatalf("Read across the page end = %d, %q", n, b)
	}
	for name, op := range map[string]func(){
		"write": func() { m.Write(f, 65, []byte("x")) },
		"read":  func() { m.Read(f, 65, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the page end did not panic", name)
				}
			}()
			op()
		}()
	}
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func mustAlloc(t *testing.T, m *PhysMem, owner trace.Comp) FrameID {
	t.Helper()
	f, err := m.Alloc(owner)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPhysMemWatermarkGrowsInSteps hands out the frames of a memory bigger
// than one growth step one by one. The frame table grows in steps, every
// frame keeps its contents across them, each written frame takes one
// contents slot, frames past the watermark stay free and read zero, the
// free stack grows once to the table's length when frees need it, and
// Reset keeps what was grown.
func TestPhysMemWatermarkGrowsInSteps(t *testing.T) {
	const frames, used = 1000, 600
	m := NewPhysMem(frames, 64)
	a := trace.NewRegistry().Intern("a")
	var steps []int
	for i := range used {
		if f := mustAlloc(t, m, a); f != FrameID(i) {
			t.Fatalf("allocation %d handed out frame %d", i, f)
		}
		m.Write(FrameID(i), 0, []byte{byte(i), byte(i >> 8)})
		if n := len(m.table); len(steps) == 0 || steps[len(steps)-1] != n {
			steps = append(steps, n)
		}
		// Frame 0 is written zeros, which store nothing, so it takes no
		// contents slot; every later frame takes one.
		if len(m.bufs) != i || m.free != nil {
			t.Fatalf("after %d frames: %d contents slots, %d records, free stack %v", i+1, len(m.bufs), len(m.table), m.free)
		}
	}
	if want := []int{256, 512, frames}; !slices.Equal(steps, want) {
		t.Fatalf("frame table grew through %v records, want %v", steps, want)
	}
	for i := range used {
		got := make([]byte, 2)
		if m.Read(FrameID(i), 0, got); !bytes.Equal(got, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("frame %d reads %x after the frame table grew", i, got)
		}
	}
	if m.FreeFrames() != frames-used || m.Owner(used) != trace.CompNone || len(m.Bytes(frames-1)) != 0 {
		t.Fatalf("%d free frames; frame %d owned by %d", m.FreeFrames(), used, m.Owner(used))
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	m.Free(0)
	stack := cap(m.free)
	for f := FrameID(1); f < used; f++ {
		m.Free(f)
	}
	if stack < frames || cap(m.free) != stack {
		t.Fatalf("the first free grew the free stack to %d entries and %d frees to %d; want the table's %d, once", stack, used, cap(m.free), frames)
	}
	m.Reset()
	if len(m.table) != frames || cap(m.free) < frames || m.next != 0 || m.FreeFrames() != frames {
		t.Fatalf("after Reset: %d-record table, free stack capacity %d, watermark %d, %d free", len(m.table), cap(m.free), m.next, m.FreeFrames())
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestPhysMemFramesPastTheSlices pins what a frame the memory has never
// touched looks like: free and zero, naming no guest page, with the
// free-frame panics of Free, Transfer and SetM2P, and the out-of-range
// panic one frame past the end. A Write to one extends the frame table to
// it, and Audit reports the write.
func TestPhysMemFramesPastTheSlices(t *testing.T) {
	const frames = 1 << 20
	m := NewPhysMem(frames, 4096)
	a := trace.NewRegistry().Intern("a")
	m.Write(mustAlloc(t, m, a), 0, []byte("touched"))
	far := FrameID(frames - 1)
	if int(far) < len(m.table) {
		t.Fatalf("frame %d lies within a %d-record frame table", far, len(m.table))
	}
	page := bytes.Repeat([]byte{0xEE}, 4096)
	if m.Read(far, 0, page); !bytes.Equal(page, make([]byte, 4096)) {
		t.Fatal("an untouched frame does not read zero")
	}
	if m.Owner(far) != trace.CompNone || len(m.Bytes(far)) != 0 || m.M2P(far) != -1 || m.M2P(frames) != -1 {
		t.Fatalf("untouched frame owned by %d with a %d-byte prefix, naming guest page %d", m.Owner(far), len(m.Bytes(far)), m.M2P(far))
	}
	for name, op := range map[string]func(){
		"Free of an untouched frame":     func() { m.Free(far) },
		"Transfer of an untouched frame": func() { m.Transfer(far, a) },
		"SetM2P of an untouched frame":   func() { m.SetM2P(far, 0) },
		"Owner past the end":             func() { m.Owner(frames) },
		"Transfer past the end":          func() { m.Transfer(frames, a) },
	} {
		if !panics(op) {
			t.Errorf("%s did not panic", name)
		}
	}
	m.Write(5000, 1, []byte{7})
	if len(m.table) != 5001 || record(m, 5000).slot != 2 || string(m.Bytes(5000)) != "\x00\x07" {
		t.Fatalf("write past the table: %d-record table, contents slot %d, frame reads %x", len(m.table), record(m, 5000).slot, m.Bytes(5000))
	}
	if err := m.Audit(); err == nil || !strings.Contains(err.Error(), "untouched frame 5000 holds a 2-byte prefix") {
		t.Fatalf("Audit after writing an untouched frame = %v", err)
	}
}

// TestFrameBitsBoundsMemoryAndEntries: FrameBits is the physical address
// width. NewPhysMem refuses a memory one frame past it, and the largest
// memory it builds costs nothing until used. The highest frame a table
// entry holds maps and reads back on dense and sparse VPNs alike, with
// every permission bit and the user bit. A frame one past it, or a
// permission bit outside PermRWX, panics rather than truncate, and leaves
// the table as it was.
func TestFrameBitsBoundsMemoryAndEntries(t *testing.T) {
	const most = 1 << FrameBits
	if !panics(func() { NewPhysMem(most+1, 4096) }) {
		t.Fatal("a memory one frame past the physical address width was built")
	}
	m := NewPhysMem(most, 4096)
	if last := FrameID(most - 1); m.Owner(last) != trace.CompNone || m.FreeFrames() != most {
		t.Fatalf("largest memory: frame %d owned by %d, %d free", last, m.Owner(last), m.FreeFrames())
	}
	const top = FrameID(most - 1)
	pt := NewPageTableSized(1, 8)
	for _, v := range []VPN{3, 0x1000} {
		e := PTE{Frame: top, Perms: PermRWX, User: true}
		pt.Map(v, e)
		if got, ok := pt.Lookup(v); !ok || got != e {
			t.Fatalf("VPN %#x maps %+v, %v; want %+v", v, got, ok, e)
		}
		for _, bad := range []PTE{{Frame: top + 1, Perms: PermR}, {Frame: NoFrame, Perms: PermR}, {Frame: 1, Perms: 1 << 3}} {
			if !panics(func() { pt.Map(v, bad) }) {
				t.Fatalf("VPN %#x: Map(%+v) did not panic", v, bad)
			}
		}
		if got, _ := pt.Lookup(v); got != e {
			t.Fatalf("VPN %#x maps %+v after the refused maps, want %+v", v, got, e)
		}
	}
	if pt.Len() != 2 || pt.FramesMapped(top) != 2 {
		t.Fatalf("%d entries, frame %d mapped %d times; want 2 and 2", pt.Len(), top, pt.FramesMapped(top))
	}
}

// TestPhysMemAuditCatchesCorruption breaks each conservation law by hand
// and checks Audit names it. The memory has four frames: frame 0 is owned
// and written, frame 1 was freed, so the watermark is at 2, and frames 2
// and 3 are untouched but inside the frame table.
func TestPhysMemAuditCatchesCorruption(t *testing.T) {
	a := trace.NewRegistry().Intern("a")
	const untouched = FrameID(3)
	for _, tc := range []struct {
		name    string
		corrupt func(m *PhysMem, owned, freed FrameID)
		want    string
	}{
		{"dirty free frame", func(m *PhysMem, _, freed FrameID) {
			setContents(m, freed, []byte{0, 1})
		}, "free frame 1 holds a 2-byte prefix"},
		{"prefix past the page", func(m *PhysMem, owned, _ FrameID) {
			setContents(m, owned, make([]byte, m.pageSize+1))
		}, "in a 64-byte page"},
		{"free-stack entry past the watermark", func(m *PhysMem, _, _ FrameID) {
			m.free = append(m.free, untouched)
		}, "free stack holds untouched frame 3"},
		{"owned frame past the watermark", func(m *PhysMem, _, _ FrameID) {
			record(m, untouched).owner = a
		}, "untouched frame 3 (watermark 2) is owned"},
		{"prefix on an untouched frame", func(m *PhysMem, _, _ FrameID) {
			setContents(m, untouched, []byte{0, 1})
		}, "untouched frame 3 holds a 2-byte prefix"},
		{"M2P word on a free frame", func(m *PhysMem, _, freed FrameID) {
			record(m, freed).m2p = 5
		}, "free frame 1 carries M2P word 5"},
		{"M2P word past the watermark", func(m *PhysMem, _, _ FrameID) {
			record(m, untouched).m2p = 1
		}, "untouched frame 3 (watermark 2) carries M2P word 1"},
		{"contents slot out of range", func(m *PhysMem, _, freed FrameID) {
			record(m, freed).slot = 3
		}, "frame 1 names contents slot 2 of 1"},
		{"contents slot shared", func(m *PhysMem, owned, freed FrameID) {
			record(m, freed).slot = record(m, owned).slot
		}, "frame 1 names contents slot 0, which another frame holds"},
		{"contents slot without a frame", func(m *PhysMem, _, _ FrameID) {
			m.bufs = append(m.bufs, nil)
		}, "contents slot 1 belongs to no frame"},
		{"duplicate on free stack", func(m *PhysMem, _, freed FrameID) {
			m.free = append(m.free, freed)
		}, "twice"},
		{"owned frame on free stack", func(m *PhysMem, owned, _ FrameID) {
			m.free = append(m.free, owned)
		}, "free-stack frame 0 is owned"},
		{"lost frame", func(m *PhysMem, _, _ FrameID) {
			m.free = m.free[:0]
		}, "neither owned nor free"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewPhysMem(4, 64)
			owned, freed := mustAlloc(t, m, a), mustAlloc(t, m, a)
			m.Write(owned, 0, []byte{1})
			m.SetM2P(owned, 0)
			m.Free(freed)
			if err := m.Audit(); err != nil {
				t.Fatalf("clean memory: %v", err)
			}
			if m.next != 2 || len(m.table) != 4 {
				t.Fatalf("watermark %d with a %d-record table, want 2 with 4", m.next, len(m.table))
			}
			tc.corrupt(m, owned, freed)
			err := m.Audit()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Audit = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestPhysMemResizeKeepsItsBounds pins a resized memory's invariants. A
// memory that handed out 300 of its 1024 frames, was Reset and was
// resized down to 100 frames of another page size keeps its longer frame
// table, yet reports the new geometry, refuses frame 100 and past in
// checkFrame and Owner, hands out frames 0 to 99 only, and grows its free
// stack to the frame count, not the table. Audit passes on the longer
// table and names a record past the count that holds an owner, an M2P
// word or a prefix. Resizing a memory in use, or to a frame count
// NewPhysMem refuses, panics.
func TestPhysMemResizeKeepsItsBounds(t *testing.T) {
	a := trace.NewRegistry().Intern("a")
	const count, past = 100, FrameID(200)
	resized := func(t *testing.T) *PhysMem {
		t.Helper()
		m := NewPhysMem(1024, 64)
		fs, err := m.AllocN(a, 300)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			m.Write(f, 0, []byte{byte(f) | 1})
			m.SetM2P(f, int(f))
		}
		m.Reset()
		m.resize(count, 128)
		if err := m.Audit(); err != nil {
			t.Fatalf("resized memory: %v", err)
		}
		return m
	}
	m := resized(t)
	if len(m.table) <= int(past) || m.TotalFrames() != count || m.FreeFrames() != count || m.PageSize() != 128 {
		t.Fatalf("%d records, %d frames, %d free, %d-byte pages; want more than %d records and %d frames of 128 bytes, all free",
			len(m.table), m.TotalFrames(), m.FreeFrames(), m.PageSize(), past, count)
	}
	for _, f := range []FrameID{count, past, FrameID(len(m.table)), 1023} {
		if !panics(func() { m.checkFrame(f) }) || !panics(func() { m.Owner(f) }) {
			t.Fatalf("frame %d of a %d-frame memory passed checkFrame or Owner", f, count)
		}
	}
	fs, err := m.AllocN(a, count)
	if err != nil || fs[count-1] != count-1 {
		t.Fatalf("AllocN(%d) = %v, %v", count, fs, err)
	}
	if f, err := m.Alloc(a); err != ErrOutOfMemory {
		t.Fatalf("Alloc past the frame count = %d, %v", f, err)
	}
	for _, f := range fs[:count/2] {
		m.Free(f)
	}
	if c := cap(m.free); c >= len(m.table) {
		t.Errorf("the free stack of a %d-frame memory grew to %d, the %d-record table", count, c, len(m.table))
	}
	if err := m.Audit(); err != nil {
		t.Fatalf("resized memory in use: %v", err)
	}
	if !panics(func() { m.resize(count, 64) }) {
		t.Error("a memory in use was resized")
	}
	m.Reset()
	for _, bad := range []int{0, -1, 1<<FrameBits + 1} {
		if !panics(func() { m.resize(bad, 64) }) {
			t.Errorf("a memory was resized to %d frames", bad)
		}
	}

	for _, tc := range []struct {
		name    string
		corrupt func(m *PhysMem)
		want    string
	}{
		{"owner past the count", func(m *PhysMem) { record(m, past).owner = a }, "untouched frame 200 (watermark 0) is owned"},
		{"M2P word past the count", func(m *PhysMem) { record(m, past).m2p = 7 }, "untouched frame 200 (watermark 0) carries M2P word 7"},
		{"prefix past the count", func(m *PhysMem) { setContents(m, past, []byte{1}) }, "untouched frame 200 holds a 1-byte prefix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := resized(t)
			tc.corrupt(m)
			if err := m.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Audit = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// record returns f's record in m's frame table, for the white-box tests
// that read or corrupt it.
func record(m *PhysMem, f FrameID) *frameRec { return &m.table[f] }

// setContents puts b in f's contents slot, taking a new slot when f has
// none: how the corruption tests plant a prefix.
func setContents(m *PhysMem, f FrameID, b []byte) {
	r := record(m, f)
	if r.slot == 0 {
		m.bufs = append(m.bufs, nil)
		r.slot = uint32(len(m.bufs))
	}
	m.bufs[r.slot-1] = b
}

// TestFrameRecordSize: a frame's record is its owner, its M2P word and its
// contents slot, with no pointer for the garbage collector to scan.
func TestFrameRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(frameRec{}); n != 12 {
		t.Fatalf("frameRec is %d bytes, want 12", n)
	}
}

// physModel is FuzzPhysMem's reference: the plainest memory that meets
// PhysMem's contract. It keeps every page whole, zeroes it the moment it
// is freed, names owners by string, keeps each frame's M2P entry as a
// plain guest page number (-1 for none) and a free stack of every free
// frame, untouched ones included, so any difference from PhysMem is a
// prefix, owner-handle, M2P or watermark bug.
type physModel struct {
	pages [][]byte
	owner []string
	m2p   []int
	free  []FrameID
}

func newPhysModel(frames, pageSize int) *physModel {
	pm := &physModel{pages: make([][]byte, frames), owner: make([]string, frames), m2p: make([]int, frames)}
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
		pm.m2p[i] = -1
		clear(pm.pages[i])
	}
}

// take pops n frames off the free stack for owner, one at a time.
func (pm *physModel) take(n int, owner string) []FrameID {
	out := make([]FrameID, n)
	for j := range out {
		out[j] = pm.free[len(pm.free)-1]
		pm.free = pm.free[:len(pm.free)-1]
		pm.owner[out[j]] = owner
	}
	return out
}

func (pm *physModel) release(f FrameID) {
	pm.owner[f] = ""
	pm.m2p[f] = -1
	clear(pm.pages[f])
	pm.free = append(pm.free, f)
}

// twin returns a copy of m with allocator state of its own, to check one
// allocation path against another. It shares m's contents buffers, so it
// must not be written.
func twin(m *PhysMem) *PhysMem {
	c := *m
	c.table = slices.Clone(m.table)
	c.free = slices.Clone(m.free)
	return &c
}

// FuzzPhysMem drives two memories and their reference models through a
// byte-decoded sequence of Alloc, Free, Transfer, one-byte Write, Copy,
// CopyPage (within and across memories), Reset, Write, Read, Load, Bytes,
// a probe of any frame, AllocN against the model, AllocN against n single
// Allocs on a twin of the memory, and SetM2P, and after every op checks
// contents, owners, M2P entries, per-owner counts, the free count and
// Audit. Write, Read and Load take random offsets and lengths, empty ones
// and ones that cross the page end included. Some Writes carry zero bytes
// only, inside and past the prefix; one past it must leave the prefix as
// it was. Bytes must be a prefix of the model's page with zeros beyond it.
// The probe reaches one frame past the end too, and frames a memory has
// not touched yet. SetM2P sets or clears an owned frame's entry and must
// panic on a free one.
func FuzzPhysMem(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 3, 0, 0, 5, 9, 5, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 1, 0, 7, 1, 0, 1, 0, 5, 1, 0, 0, 1, 6, 0})
	f.Add([]byte{0, 0, 0, 3, 0, 0, 1, 8, 5, 0, 0, 0, 0, 6, 1, 2, 0, 0, 3})
	// Zero writes past an empty prefix, then past and inside a 10-byte one.
	f.Add([]byte{0, 0, 0, 0, 0, 7, 2, 0, 4, 9, 7, 0, 0, 1, 9, 7, 2, 0, 20, 30, 7, 2, 0, 3, 4, 10, 0, 0, 0, 0})
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
			op, k := ops[i]%15, arg(i+1)%2
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
				if want := pm.take(1, names[o])[0]; err != nil || got != want {
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
			case 3: // one-byte Write
				if pm.owner[f1] == "" {
					break
				}
				off, v := arg(i+3)%pageSize, byte(arg(i+4))
				m.Write(f1, off, []byte{v})
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
			case 7: // Write, of zero bytes only when bit 1 of the memory byte is set
				if pm.owner[f1] == "" {
					break
				}
				off, b := arg(i+3)%(pageSize+1), fuzzBytes(arg(i+3), arg(i+4), pageSize)
				zero := arg(i+1)&2 != 0
				if zero {
					clear(b)
				}
				before := len(m.Bytes(f1))
				if got, want := m.Write(f1, off, b), min(len(b), pageSize-off); got != want {
					t.Fatalf("op %d: Write of %d bytes at %d stored %d, want %d", i, len(b), off, got, want)
				}
				copy(pm.pages[f1][off:], b)
				// Zero bytes at or past the prefix's end read zero already,
				// so writing them stores nothing.
				if after := len(m.Bytes(f1)); zero && off >= before && after != before {
					t.Fatalf("op %d: zero Write of %d bytes at %d moved the prefix's end from %d to %d", i, len(b), off, before, after)
				}
				desc = fmt.Sprintf("write %d[%d:] %d bytes (zero %v)", f1, off, len(b), zero)
			case 8: // Read, of any frame
				off, n := arg(i+3)%(pageSize+1), arg(i+4)%(pageSize+8)
				b := bytes.Repeat([]byte{0xEE}, n)
				got := m.Read(f1, off, b)
				want := pm.pages[f1][off:min(off+n, pageSize)]
				if got != len(want) || !bytes.Equal(b[:got], want) || !bytes.Equal(b[got:], bytes.Repeat([]byte{0xEE}, n-got)) {
					t.Fatalf("op %d: Read %d[%d:] of %d bytes = %d, %x; model %x", i, f1, off, n, got, b, want)
				}
				desc = fmt.Sprintf("read %d[%d:] %d bytes", f1, off, n)
			case 9: // Load
				if pm.owner[f1] == "" {
					break
				}
				b := fuzzBytes(arg(i+3), arg(i+4), pageSize)
				m.Load(f1, b)
				clear(pm.pages[f1])
				copy(pm.pages[f1], b)
				desc = fmt.Sprintf("load %d with %d bytes", f1, len(b))
			case 10: // Bytes, of any frame
				p, page := m.Bytes(f1), pm.pages[f1]
				if len(p) > pageSize || cap(p) != len(p) || !bytes.Equal(p, page[:len(p)]) || !bytes.Equal(page[len(p):], make([]byte, pageSize-len(p))) {
					t.Fatalf("op %d: Bytes(%d) = %x (cap %d); model page %x", i, f1, p, cap(p), page)
				}
				desc = fmt.Sprintf("bytes %d", f1)
			case 11: // probe a frame, handed out or not, or one past the end
				f := FrameID(arg(i+2) % (frames + 1))
				if f == frames {
					for name, probe := range map[string]func(){
						"Owner":  func() { m.Owner(f) },
						"Read":   func() { m.Read(f, 0, nil) },
						"Bytes":  func() { m.Bytes(f) },
						"SetM2P": func() { m.SetM2P(f, 0) },
					} {
						if !panics(probe) {
							t.Fatalf("op %d: %s of out-of-range frame %d did not panic", i, name, f)
						}
					}
					if g := m.M2P(f); g != -1 {
						t.Fatalf("op %d: out-of-range frame %d names guest page %d", i, f, g)
					}
					desc = fmt.Sprintf("probe out-of-range %d", f)
					break
				}
				page := bytes.Repeat([]byte{0xEE}, pageSize)
				m.Read(f, 0, page)
				o, p := m.Owner(f), m.Bytes(f)
				if pm.owner[f] == "" && (o != trace.CompNone || len(p) != 0 || !bytes.Equal(page, make([]byte, pageSize))) {
					t.Fatalf("op %d: free frame %d probes as owned by %d with a %d-byte prefix, reading %x", i, f, o, len(p), page)
				}
				desc = fmt.Sprintf("probe %d", f)
			case 12: // AllocN, all or nothing
				o, n := arg(i+2)%len(names), arg(i+3)%(frames+2)
				got, err := m.AllocN(comps[o], n)
				if n > len(pm.free) {
					if err != ErrOutOfMemory || got != nil {
						t.Fatalf("op %d: AllocN(%d) with %d free = %v, %v", i, n, len(pm.free), got, err)
					}
					desc = fmt.Sprintf("allocN %d refused", n)
					break
				}
				if want := pm.take(n, names[o]); err != nil || !slices.Equal(got, want) {
					t.Fatalf("op %d: AllocN(%d) = %v, %v; want %v", i, n, got, err, want)
				}
				desc = fmt.Sprintf("allocN %v to %s", got, names[o])
			case 13: // AllocN, against n single Allocs on a twin
				o, n := arg(i+2)%len(names), arg(i+3)%(frames+2)
				tw, free := twin(m), m.FreeFrames()
				got, err := m.AllocN(comps[o], n)
				if n > free {
					if err != ErrOutOfMemory || got != nil || !sameAllocator(m, tw) {
						t.Fatalf("op %d: AllocN(%d) with %d free = %v, %v; the refusal must take nothing", i, n, free, got, err)
					}
					desc = fmt.Sprintf("allocN %d against Allocs refused", n)
					break
				}
				want := make([]FrameID, n)
				for j := range want {
					want[j], _ = tw.Alloc(comps[o])
				}
				if err != nil || !slices.Equal(got, want) || !sameAllocator(m, tw) {
					t.Fatalf("op %d: AllocN(%d) = %v, %v; %d Allocs took %v", i, n, got, err, n, want)
				}
				pm.take(n, names[o])
				desc = fmt.Sprintf("allocN %v to %s against Allocs", got, names[o])
			case 14: // SetM2P: set or clear an owned frame's entry
				gpn := arg(i+3)%8 - 1
				if pm.owner[f1] == "" {
					if !panics(func() { m.SetM2P(f1, gpn) }) {
						t.Fatalf("op %d: SetM2P(%d, %d) of a free frame did not panic", i, f1, gpn)
					}
					desc = fmt.Sprintf("setM2P %d refused", f1)
					break
				}
				m.SetM2P(f1, gpn)
				pm.m2p[f1] = gpn
				desc = fmt.Sprintf("setM2P %d = %d", f1, gpn)
			}
			for j, m := range mems {
				checkAgainstModel(t, fmt.Sprintf("op %d (mem%d %s), mem%d", i, k, desc, j), m, models[j], reg, comps)
			}
		}
	})
}

// fuzzBytes is the payload of a fuzzed Write or Load: up to a page plus
// eight bytes, so some cross the page end and some are empty, with a
// pattern that includes zero bytes.
func fuzzBytes(seed, n, pageSize int) []byte {
	b := make([]byte, n%(pageSize+8))
	for j := range b {
		b[j] = byte(seed + 37*j)
	}
	return b
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
		if got := m.M2P(FrameID(f)); got != pm.m2p[f] {
			t.Fatalf("%s: frame %d names guest page %d, model %d", where, f, got, pm.m2p[f])
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

// sameAllocator reports whether a and b hold the same allocator state: the
// watermark, the frame table's length, every record's owner and M2P word,
// the free stack and the allocation count.
func sameAllocator(a, b *PhysMem) bool {
	if a.next != b.next || len(a.table) != len(b.table) || !slices.Equal(a.free, b.free) {
		return false
	}
	for f, r := range a.table {
		if r.owner != b.table[f].owner || r.m2p != b.table[f].m2p {
			return false
		}
	}
	na, _ := a.Stats()
	nb, _ := b.Stats()
	return na == nb
}

// TestPhysMemAllocNMatchesAlloc runs one schedule of AllocN calls, frees
// between them, on a memory bigger than one growth step, and the same
// schedule as single Allocs on a twin. Each AllocN must take the IDs the
// Allocs do, freed frames first and then a run from the watermark, and
// leave the same allocator behind, its frame table grown through the same
// steps; one that asks for more than is free takes nothing.
func TestPhysMemAllocNMatchesAlloc(t *testing.T) {
	const frames = 1000
	reg := trace.NewRegistry()
	a, b := reg.Intern("a"), reg.Intern("b")
	m, tw := NewPhysMem(frames, 64), NewPhysMem(frames, 64)
	var steps []int
	for _, step := range []struct {
		owner trace.Comp
		n     int
		free  []FrameID
	}{
		{a, 300, []FrameID{7, 250, 3}},
		{b, 2, nil},
		{b, 400, []FrameID{0, 299, 100, 1}},
		{a, frames, nil},
		{a, 298, []FrameID{700, 5}},
		{b, 2, nil},
		{a, 7, nil},
		{b, 1, nil},
	} {
		got, err := m.AllocN(step.owner, step.n)
		var want []FrameID
		if step.n <= tw.FreeFrames() {
			for range step.n {
				f, _ := tw.Alloc(step.owner)
				want = append(want, f)
			}
		} else if err != ErrOutOfMemory {
			t.Fatalf("AllocN(%d) with %d free: err = %v, want ErrOutOfMemory", step.n, tw.FreeFrames(), err)
		}
		if !slices.Equal(got, want) || !sameAllocator(m, tw) {
			t.Fatalf("AllocN(%d) = %v; %d Allocs took %v", step.n, got, step.n, want)
		}
		if n := len(m.table); len(steps) == 0 || steps[len(steps)-1] != n {
			steps = append(steps, n)
		}
		for _, f := range step.free {
			m.Free(f)
			tw.Free(f)
		}
		if err := m.Audit(); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{512, frames}; !slices.Equal(steps, want) {
		t.Fatalf("frame table grew through %v records, want %v", steps, want)
	}
	if m.FreeFrames() != 0 {
		t.Fatalf("%d frames left free, want none", m.FreeFrames())
	}
}

func BenchmarkPhysMemAllocFree(b *testing.B) {
	m := NewPhysMem(4096, 4096)
	c := trace.NewRegistry().Intern("bench")
	f, _ := m.Alloc(c)
	m.Write(f, 0, []byte{1}) // a written frame: Free must not pay to zero it
	m.Free(f)
	b.ReportAllocs()
	for b.Loop() {
		f, _ := m.Alloc(c)
		m.Free(f)
	}
}

// BenchmarkPhysMemReset is one pooled-machine lifetime in miniature: 256
// of 4096 frames allocated and each written a whole page, then Reset.
// Reset only truncates each prefix, and the next op's writes land in the
// kept buffers, so after the first op nothing allocates but AllocN's
// result.
func BenchmarkPhysMemReset(b *testing.B) {
	m := NewPhysMem(4096, 4096)
	c := trace.NewRegistry().Intern("bench")
	page := bytes.Repeat([]byte{1}, 4096)
	b.ReportAllocs()
	for b.Loop() {
		fs, _ := m.AllocN(c, 256)
		for _, f := range fs {
			m.Write(f, 0, page)
		}
		m.Reset()
	}
}

// BenchmarkCopyPage copies a source page across two memories: one that
// reads zero, one holding a single written byte (a page E12 or E13
// dirtied), and a whole page.
func BenchmarkCopyPage(b *testing.B) {
	c := trace.NewRegistry().Intern("bench")
	for _, tc := range []struct {
		name string
		fill func(m *PhysMem, f FrameID)
	}{
		{"zero-source", func(*PhysMem, FrameID) {}},
		{"one-byte-source", func(m *PhysMem, f FrameID) { m.Write(f, 0, []byte{1}) }},
		{"whole-page-source", func(m *PhysMem, f FrameID) { m.Write(f, 0, bytes.Repeat([]byte{1}, 4096)) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			src, dst := NewPhysMem(1, 4096), NewPhysMem(1, 4096)
			sf, _ := src.Alloc(c)
			df, _ := dst.Alloc(c)
			tc.fill(src, sf)
			b.ReportAllocs()
			for b.Loop() {
				dst.CopyPage(df, src, sf)
			}
		})
	}
}

// TestZeroWriteAllocatesNothing: zero bytes written at or past a frame's
// prefix read zero already, so the write stores nothing. Each run writes
// zeros to fresh frames: one with a short prefix, one never written, and
// one past the frame table, none of which the write may extend.
func TestZeroWriteAllocatesNothing(t *testing.T) {
	const runs = 101 // AllocsPerRun's warm-up run, then 100
	m := NewPhysMem(4*runs, 4096)
	a := trace.NewRegistry().Intern("a")
	touched, _ := m.AllocN(a, runs)
	blank, _ := m.AllocN(a, runs)
	for _, f := range touched {
		m.Write(f, 0, []byte("prefix"))
	}
	slices := len(m.table)
	zeros := make([]byte, 4096)
	i := 0
	if n := testing.AllocsPerRun(runs-1, func() {
		m.Write(touched[i], 6, zeros[:1500])
		m.Write(touched[i], 100, zeros)
		m.Write(blank[i], 0, zeros)
		m.Write(FrameID(4*runs-1-i), 0, zeros[:64])
		i++
	}); n != 0 {
		t.Errorf("zero writes past the prefix allocate %.1f times per run", n)
	}
	if got, want := m.Write(touched[0], 100, zeros), 4096-100; got != want {
		t.Errorf("a zero Write at offset 100 reports %d bytes, want %d", got, want)
	}
	page := make([]byte, 4096)
	copy(page, "prefix")
	for j := range runs {
		if len(m.Bytes(touched[j])) != 6 || len(m.Bytes(blank[j])) != 0 {
			t.Fatalf("run %d: zero writes left %d- and %d-byte prefixes", j, len(m.Bytes(touched[j])), len(m.Bytes(blank[j])))
		}
		if !bytes.Equal(peek(m, touched[j]), page) || !bytes.Equal(peek(m, FrameID(4*runs-1-j)), zeros) {
			t.Fatalf("run %d: a frame reads differently after zero writes past its prefix", j)
		}
	}
	if len(m.table) != slices || len(m.bufs) != runs {
		t.Fatalf("zero writes grew the frame table from %d to %d records and took %d contents slots for %d written frames", slices, len(m.table), len(m.bufs), runs)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestPhysMemView: View hands out exactly n bytes, zero tail included: the
// prefix itself when it reaches n, shared zeros for a frame that reads
// zero, and a copy otherwise; none of them writable into the frame.
func TestPhysMemView(t *testing.T) {
	m := NewPhysMem(3, 4096)
	a := trace.NewRegistry().Intern("a")
	long, short, blank := mustAlloc(t, m, a), mustAlloc(t, m, a), mustAlloc(t, m, a)
	m.Write(long, 0, bytes.Repeat([]byte{7}, 100))
	m.Write(short, 0, []byte{1, 2})
	m.Write(blank, 0, make([]byte, 1500))
	for _, tc := range []struct {
		f    FrameID
		n    int
		want []byte
	}{
		{long, 50, bytes.Repeat([]byte{7}, 50)},
		{short, 5, []byte{1, 2, 0, 0, 0}},
		{blank, 1500, make([]byte, 1500)},
		{blank, 0, []byte{}},
	} {
		v := m.View(tc.f, tc.n)
		if !bytes.Equal(v, tc.want) || cap(v) != tc.n {
			t.Errorf("View(%d, %d) = %x (cap %d), want %x", tc.f, tc.n, v, cap(v), tc.want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { m.View(blank, 1500); m.View(long, 100) }); n != 0 {
		t.Errorf("View of a prefix and of a zero frame allocates %.1f times", n)
	}
}
