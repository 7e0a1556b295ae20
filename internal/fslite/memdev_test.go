package fslite

import (
	"bytes"
	"testing"
)

// TestMemDevReadsPrefixThenZeros: a block reads as the prefix last written
// to it followed by zeros, a shorter overwrite included, and the zero
// value takes writes.
func TestMemDevReadsPrefixThenZeros(t *testing.T) {
	var zero MemDev
	if err := zero.Write(1, []byte("ok")); err != nil || string(zero.Block(1)) != "ok" {
		t.Fatalf("zero value: Block(1) = %q, %v", zero.Block(1), err)
	}
	d := NewMemDev(8)
	d.Write(3, []byte("abcdef"))
	d.Write(3, []byte("xy"))
	got, err := d.Read(3)
	if err != nil || !bytes.Equal(got, []byte("xy\x00\x00\x00\x00\x00\x00")) {
		t.Fatalf("Read(3) = %q, %v; want the 2-byte prefix and 6 zeros", got, err)
	}
	if got, _ := d.Read(4); !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("unwritten block reads %q", got)
	}
}

// TestMemDevOverwriteAfterSnapshotKeepsFrozen: after a snapshot an
// overwrite changes Block and leaves Frozen as it was, and a block the
// overwrite did not touch still reads its frozen prefix.
func TestMemDevOverwriteAfterSnapshotKeepsFrozen(t *testing.T) {
	var d MemDev
	d.Write(1, []byte("old1"))
	d.Write(2, []byte("old2"))
	d.Snapshot()
	d.Write(1, []byte("new1"))
	if got := string(d.Block(1)); got != "new1" {
		t.Errorf("Block(1) = %q after the overwrite, want new1", got)
	}
	if got := string(d.Frozen(1)); got != "old1" {
		t.Errorf("Frozen(1) = %q after the overwrite, want old1", got)
	}
	if got := string(d.Block(2)); got != "old2" {
		t.Errorf("Block(2) = %q, want the frozen old2", got)
	}
}

// TestMemDevEmptyWriteAfterSnapshotIsNil: an empty write after a snapshot
// makes Block nil, not the frozen prefix, which the mk store server reads
// as "fall through to persistence"; Frozen keeps the prefix.
func TestMemDevEmptyWriteAfterSnapshotIsNil(t *testing.T) {
	var d MemDev
	d.Write(5, []byte("kept"))
	d.Snapshot()
	d.Write(5, nil)
	if b := d.Block(5); b != nil {
		t.Errorf("Block(5) = %q after an empty write, want nil", b)
	}
	if got := string(d.Frozen(5)); got != "kept" {
		t.Errorf("Frozen(5) = %q, want kept", got)
	}
}

// TestMemDevSnapshotReturnsLiveCount: Snapshot returns how many blocks
// were written since the last one, and adds them to what it froze before.
func TestMemDevSnapshotReturnsLiveCount(t *testing.T) {
	var d MemDev
	if n := d.Snapshot(); n != 0 {
		t.Errorf("first Snapshot of an empty device = %d, want 0", n)
	}
	d.Write(1, []byte("a"))
	d.Write(2, []byte("b"))
	d.Write(1, []byte("c"))
	if n := d.Snapshot(); n != 2 {
		t.Errorf("Snapshot = %d, want 2", n)
	}
	d.Write(3, []byte("d"))
	if n := d.Snapshot(); n != 1 {
		t.Errorf("second Snapshot = %d, want 1", n)
	}
	for b, want := range []string{"c", "b", "d"} { // blocks 1, 2 and 3
		if got := string(d.Frozen(uint64(b + 1))); got != want {
			t.Errorf("Frozen(%d) = %q, want %q", b+1, got, want)
		}
	}
}

// TestMemDevRewriteAllocatesNothing: MemDev overwrites a block it already
// holds in its own buffer and returns reads in its one reused buffer.
func TestMemDevRewriteAllocatesNothing(t *testing.T) {
	d := NewMemDev(512)
	data := bytes.Repeat([]byte{0x3C}, 512)
	if err := d.Write(9, data); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := d.Write(9, data); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Read(9); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("rewriting and reading a held block allocates %.1f times", n)
	}
}
