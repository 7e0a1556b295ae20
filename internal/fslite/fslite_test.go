package fslite

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// memDev is the MemDev the unit tests mount over, failing every read and
// write after failAfter operations (0 = never). The cross-stack
// integration tests in internal/core mount fslite over the real simulated
// storage paths. Like them MemDev returns reads in one reused buffer, so a
// test fails if the filesystem holds on to a read past the device's next
// call.
type memDev struct {
	*MemDev
	failAfter int
	ops       int
}

func newMemDev(blockSize uint64) *memDev { return &memDev{MemDev: NewMemDev(blockSize)} }

// fail counts an operation and reports whether it is past failAfter.
func (d *memDev) fail() bool {
	d.ops++
	return d.failAfter > 0 && d.ops > d.failAfter
}

func (d *memDev) Read(block uint64) ([]byte, error) {
	if d.fail() {
		return nil, errors.New("memdev: injected failure")
	}
	return d.MemDev.Read(block)
}

func (d *memDev) Write(block uint64, data []byte) error {
	if d.fail() {
		return errors.New("memdev: injected failure")
	}
	return d.MemDev.Write(block, data)
}

func newFS(t testing.TB) (*FS, *memDev) {
	t.Helper()
	dev := newMemDev(4096)
	fs, err := Mkfs(dev, 4096, 256)
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

func TestMkfsGeometryValidation(t *testing.T) {
	dev := newMemDev(4096)
	if _, err := Mkfs(dev, 100, 256); err == nil {
		t.Fatal("tiny block size accepted")
	}
	if _, err := Mkfs(dev, 4096, 3); err == nil {
		t.Fatal("too few blocks accepted")
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs, _ := newFS(t)
	want := []byte("hello filesystem")
	if err := fs.WriteFile("greeting.txt", want); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("greeting.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
	size, err := fs.Stat("greeting.txt")
	if err != nil || size != uint64(len(want)) {
		t.Fatalf("stat = %d, %v", size, err)
	}
}

func TestMultiBlockFile(t *testing.T) {
	fs, _ := newFS(t)
	want := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KB = 4 blocks
	if err := fs.WriteFile("big", want); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("multi-block content mismatch")
	}
}

func TestFileTooBig(t *testing.T) {
	fs, _ := newFS(t)
	if err := fs.WriteFile("huge", make([]byte, fs.MaxFileSize()+1)); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("err = %v, want ErrFileTooBig", err)
	}
	// Exactly the max works.
	if err := fs.WriteFile("max", make([]byte, fs.MaxFileSize())); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteFreesOldBlocks(t *testing.T) {
	fs, _ := newFS(t)
	free0 := fs.FreeBlocks()
	if err := fs.WriteFile("f", make([]byte, 5*4096)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if got := fs.FreeBlocks(); got != free0-1 {
		t.Fatalf("free blocks = %d, want %d (shrinking rewrite must free)", got, free0-1)
	}
}

func TestRemoveFreesBlocks(t *testing.T) {
	fs, _ := newFS(t)
	free0 := fs.FreeBlocks()
	fs.WriteFile("f", make([]byte, 3*4096))
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() != free0 {
		t.Fatal("remove leaked blocks")
	}
	if _, err := fs.ReadFile("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := fs.Remove("f"); !errors.Is(err, ErrNotFound) {
		t.Fatal("double remove should fail")
	}
}

func TestCreateDuplicate(t *testing.T) {
	fs, _ := newFS(t)
	if err := fs.Create("x"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("x"); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestNameValidation(t *testing.T) {
	fs, _ := newFS(t)
	if err := fs.Create(""); !errors.Is(err, ErrNameTooLong) {
		t.Fatal("empty name accepted")
	}
	if err := fs.Create(strings.Repeat("n", maxName+1)); !errors.Is(err, ErrNameTooLong) {
		t.Fatal("overlong name accepted")
	}
	if err := fs.Create(strings.Repeat("n", maxName)); err != nil {
		t.Fatal("max-length name rejected")
	}
}

func TestListSorted(t *testing.T) {
	fs, _ := newFS(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := fs.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("list = %v", got)
	}
}

func TestReadAt(t *testing.T) {
	fs, _ := newFS(t)
	fs.WriteFile("f", []byte("abcdefghij"))
	got, err := fs.ReadAt("f", 3, 4)
	if err != nil || string(got) != "defg" {
		t.Fatalf("ReadAt = %q, %v", got, err)
	}
	// Short read at the tail.
	got, err = fs.ReadAt("f", 8, 10)
	if err != nil || string(got) != "ij" {
		t.Fatalf("tail ReadAt = %q, %v", got, err)
	}
	if _, err := fs.ReadAt("f", 11, 1); !errors.Is(err, ErrBadOffset) {
		t.Fatal("offset past EOF accepted")
	}
}

func TestMountRoundTrip(t *testing.T) {
	fs, dev := newFS(t)
	fs.WriteFile("persist", []byte("across mounts"))
	fs.WriteFile("other", bytes.Repeat([]byte("x"), 8000))

	fs2, err := Mount(dev, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile("persist")
	if err != nil || string(got) != "across mounts" {
		t.Fatalf("after remount: %q, %v", got, err)
	}
	if len(fs2.List()) != 2 {
		t.Fatalf("list after remount = %v", fs2.List())
	}
	if fs2.FreeBlocks() != fs.FreeBlocks() {
		t.Fatal("bitmap not persisted")
	}
}

func TestMountUnformatted(t *testing.T) {
	dev := newMemDev(4096)
	if _, err := Mount(dev, 4096); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("err = %v, want ErrNotFormatted", err)
	}
}

func TestMountWrongBlockSize(t *testing.T) {
	_, dev := newFS(t)
	if _, err := Mount(dev, 4096); err != nil {
		t.Fatal(err)
	}
	dev.size = 8192
	if _, err := Mount(dev, 8192); err == nil {
		t.Fatal("mismatched block size accepted")
	}
}

func TestDeviceFailurePropagates(t *testing.T) {
	fs, dev := newFS(t)
	dev.failAfter = dev.ops + 1
	if err := fs.WriteFile("f", make([]byte, 8192)); err == nil {
		t.Fatal("device failure swallowed")
	}
}

func TestExhaustion(t *testing.T) {
	dev := newMemDev(4096)
	fs, err := Mkfs(dev, 4096, firstDataBlk+4) // only 4 data blocks
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("a", make([]byte, 4*4096)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("b", []byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestQuickWriteReadIdentity(t *testing.T) {
	fs, _ := newFS(t)
	i := 0
	f := func(data []byte) bool {
		if uint64(len(data)) > fs.MaxFileSize() {
			data = data[:fs.MaxFileSize()]
		}
		name := fmt.Sprintf("q%d", i%8)
		i++
		if err := fs.WriteFile(name, data); err != nil {
			return false
		}
		got, err := fs.ReadFile(name)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBlockConservation(t *testing.T) {
	// Alternating writes and removes never leak or double-free blocks.
	fs, _ := newFS(t)
	free0 := fs.FreeBlocks()
	f := func(sizes []uint16) bool {
		for i, sz := range sizes {
			name := fmt.Sprintf("c%d", i%4)
			data := make([]byte, uint64(sz)%fs.MaxFileSize())
			if err := fs.WriteFile(name, data); err != nil {
				return false
			}
			if i%3 == 0 {
				if err := fs.Remove(name); err != nil {
					return false
				}
			}
		}
		for _, n := range fs.List() {
			if err := fs.Remove(n); err != nil {
				return false
			}
		}
		return fs.FreeBlocks() == free0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFailureKeepsOldContents pins the copy-on-write contract: a
// device error mid-rewrite must leave the old contents readable, the free
// count unchanged and the bitmap consistent with the inode table.
func TestWriteFailureKeepsOldContents(t *testing.T) {
	fs, dev := newFS(t)
	old := bytes.Repeat([]byte{'a'}, 2*4096)
	if err := fs.WriteFile("f", old); err != nil {
		t.Fatal(err)
	}
	free0 := fs.FreeBlocks()
	dev.failAfter = dev.ops + 1 // second write of the rewrite dies
	if err := fs.WriteFile("f", bytes.Repeat([]byte{'b'}, 3*4096)); err == nil {
		t.Fatal("device failure swallowed")
	}
	dev.failAfter = 0
	got, err := fs.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Errorf("old contents damaged: %d bytes tagged %q", len(got), got[:1])
	}
	if free := fs.FreeBlocks(); free != free0 {
		t.Errorf("free blocks %d after failed rewrite, want %d", free, free0)
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestNoSpaceRollsBackAllocation pins the other abort path of the same
// copy-on-write machinery: running out of blocks mid-write must release
// every fresh allocation and leave existing files untouched.
func TestNoSpaceRollsBackAllocation(t *testing.T) {
	dev := newMemDev(4096)
	fs, err := Mkfs(dev, 4096, firstDataBlk+6) // 6 data blocks
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{'a'}, 2*4096)
	if err := fs.WriteFile("f", old); err != nil {
		t.Fatal(err)
	}
	free0 := fs.FreeBlocks()
	// 5 blocks wanted, 4 free: the write dies after allocating some.
	if err := fs.WriteFile("b", make([]byte, 5*4096)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if free := fs.FreeBlocks(); free != free0 {
		t.Errorf("free blocks %d after rollback, want %d", free, free0)
	}
	if size, err := fs.Stat("b"); err != nil || size != 0 {
		t.Errorf("failed file: size %d, err %v, want empty", size, err)
	}
	got, err := fs.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Error("existing file damaged by the failed write")
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestFullInodeTableSurvivesRemount fills the inode table of a 4 KiB-block
// filesystem and remounts it: every file Create accepted must come back.
// The table holds only whole inodes, 25 to a 4 KiB block.
func TestFullInodeTableSurvivesRemount(t *testing.T) {
	fs, dev := newFS(t)
	var created []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("f%03d", i)
		err := fs.Create(name)
		if errors.Is(err, ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		created = append(created, name)
	}
	if want := inodeBlocks * 25; len(created) != want {
		t.Errorf("created %d files, want %d", len(created), want)
	}
	fs2, err := Mount(dev, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := fs2.List(); !slices.Equal(got, created) {
		t.Errorf("remount lists %d files, created %d", len(got), len(created))
	}
}

// recDev hashes every Read and Write the filesystem issues, in order: the
// operation, the block number and the bytes moved.
type recDev struct {
	inner BlockDev
	h     hash.Hash
}

func (d *recDev) log(op byte, block uint64, data []byte) {
	var hdr [17]byte
	hdr[0] = op
	binary.LittleEndian.PutUint64(hdr[1:], block)
	binary.LittleEndian.PutUint64(hdr[9:], uint64(len(data)))
	d.h.Write(hdr[:])
	d.h.Write(data)
}

func (d *recDev) Read(block uint64) ([]byte, error) {
	b, err := d.inner.Read(block)
	if err == nil {
		d.log('R', block, b)
	}
	return b, err
}

func (d *recDev) Write(block uint64, data []byte) error {
	d.log('W', block, data)
	return d.inner.Write(block, data)
}

// pattern returns n bytes that differ from position to position, tagged by
// seed, so a reordered or shifted block changes the traffic digest.
func pattern(seed byte, n uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// trafficDigest runs a scripted session over a recording device and
// returns the digest of every Read and Write it issued: two new files, a
// rewrite that shrinks one, a Create and a Remove, a remount and a read,
// and a write after the remount.
func trafficDigest(t *testing.T, bs uint64) string {
	t.Helper()
	dev := &recDev{inner: newMemDev(bs), h: sha256.New()}
	fs, err := Mkfs(dev, bs, 64)
	if err != nil {
		t.Fatal(err)
	}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step(fs.WriteFile("alpha", pattern('a', 2*bs+100)))
	step(fs.WriteFile("beta", pattern('b', bs/2)))
	step(fs.WriteFile("alpha", pattern('A', bs/3)))
	step(fs.Create("gamma"))
	step(fs.Remove("beta"))
	fs2, err := Mount(dev, bs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern('A', bs/3)) {
		t.Fatalf("remounted alpha: %d bytes differ from what was written", len(got))
	}
	step(fs2.WriteFile("delta", pattern('d', bs+7)))
	return hex.EncodeToString(dev.h.Sum(nil))
}

// TestDeviceTrafficPinned pins every block number, the order and the bytes
// of the filesystem's device traffic. FaultDev numbers writes, and over a
// simulated storage stack each Read and Write is a request, so a change to
// how fslite builds its blocks must not move any of them.
func TestDeviceTrafficPinned(t *testing.T) {
	for _, tc := range []struct {
		bs   uint64
		want string
	}{
		{512, "9100a02df487ae4011329d4c590bf89215b4b2963ec30fdb2df373def96e05bc"},
		{4096, "61015ad8060887ba590c58a6e78dbd2e9839e92f69d74d6f6f08ec3417d333f7"},
	} {
		if got := trafficDigest(t, tc.bs); got != tc.want {
			t.Errorf("%d-byte blocks: traffic digest %s, want %s", tc.bs, got, tc.want)
		}
	}
}

// TestSyncAllocatesNothing: Sync writes the metadata blocks straight from
// the image, so over a device that writes in place it allocates nothing.
func TestSyncAllocatesNothing(t *testing.T) {
	fs, _ := newFS(t)
	if n := testing.AllocsPerRun(100, func() {
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Sync allocates %.1f times", n)
	}
}

// TestWriteFileRewriteAllocatesNothing: replacing an existing 3-block file
// stages its data through the filesystem's one block buffer and re-encodes
// one inode, so it allocates nothing once the device holds both block sets
// the copy-on-write rewrite alternates between.
func TestWriteFileRewriteAllocatesNothing(t *testing.T) {
	fs, _ := newFS(t)
	data := pattern('r', 3*4096)
	rewrite := func() {
		if err := fs.WriteFile("f", data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		rewrite()
	}
	if n := testing.AllocsPerRun(100, rewrite); n != 0 {
		t.Errorf("WriteFile rewrite allocates %.1f times", n)
	}
}
