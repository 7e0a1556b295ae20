// Package fslite is a small, real filesystem over a block device: a
// superblock, an inode table with per-inode names (one flat root
// directory), an allocation bitmap, and direct block pointers. It exists to
// make the paper's component-reuse point (§2.2) concrete: the identical
// filesystem code mounts over the microkernel's storage server, over the
// VMM's blkfront, and over a Parallax virtual disk, because all it needs is
// the two-method block contract both personalities already provide.
//
// MemDev, the one in-memory block device, runs that reuse the other way:
// Parallax and the mk store server, the §3.1 twins, keep each client's
// virtual disk in one.
package fslite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// BlockDev is the device contract: read a whole block, write a whole block.
// Both OS personalities' storage clients satisfy it. The slice Read returns
// is valid until the device's next call, and Write must not keep data: the
// filesystem hands it the same buffers again.
type BlockDev interface {
	Read(block uint64) ([]byte, error)
	Write(block uint64, data []byte) error
}

// Errors returned by the filesystem, and ErrBlockTooLong, how every stack's
// block device refuses a write longer than its one-page block.
var (
	ErrBlockTooLong = errors.New("fslite: write longer than a block")
	ErrNotFormatted = errors.New("fslite: device is not formatted")
	ErrExists       = errors.New("fslite: file exists")
	ErrNotFound     = errors.New("fslite: file not found")
	ErrNoSpace      = errors.New("fslite: out of space")
	ErrFileTooBig   = errors.New("fslite: file exceeds maximum size")
	ErrNameTooLong  = errors.New("fslite: name too long")
	ErrBadOffset    = errors.New("fslite: offset out of range")
)

const (
	magic        = 0x564D4653 // "VMFS"
	maxName      = 48
	directPtrs   = 12
	inodeSize    = 8 + 8 + maxName + directPtrs*8 // flags+size+name+pointers
	inodeBlocks  = 4                              // blocks reserved for the inode table
	bitmapBlock  = 1 + inodeBlocks                // one block of allocation bitmap
	firstDataBlk = bitmapBlock + 1
)

// FS is a mounted filesystem.
type FS struct {
	dev       BlockDev
	blockSize uint64
	nblocks   uint64
	inodes    []inode
	// meta is the metadata image laid out as on disk: the superblock, the
	// inode table and the bitmap, blocks 0 to firstDataBlk-1. A change
	// re-encodes only the inode it touched, and Sync writes the blocks
	// straight from it.
	meta   []byte
	bitmap []byte // meta's bitmap block
	blk    []byte // WriteFile's staging buffer for one data block
}

type inode struct {
	used bool
	size uint64
	name string
	ptrs [directPtrs]uint64
}

// MaxFileSize returns the largest file this filesystem can hold.
func (fs *FS) MaxFileSize() uint64 { return directPtrs * fs.blockSize }

// Mkfs formats the device: writes the superblock, an empty inode table and
// a bitmap with the metadata blocks marked used.
func Mkfs(dev BlockDev, blockSize, nblocks uint64) (*FS, error) {
	if blockSize < 512 || nblocks <= firstDataBlk {
		return nil, fmt.Errorf("fslite: bad geometry %d x %d", blockSize, nblocks)
	}
	fs := layout(dev, blockSize, nblocks)
	for b := uint64(0); b < firstDataBlk; b++ {
		fs.setUsed(b, true)
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount reads filesystem state back from a formatted device.
func Mount(dev BlockDev, blockSize uint64) (*FS, error) {
	sb, err := dev.Read(0)
	if err != nil {
		return nil, err
	}
	if len(sb) < 24 || binary.LittleEndian.Uint32(sb) != magic {
		return nil, ErrNotFormatted
	}
	bs := binary.LittleEndian.Uint64(sb[8:])
	if bs != blockSize {
		return nil, fmt.Errorf("fslite: superblock block size %d, mounted with %d", bs, blockSize)
	}
	fs := layout(dev, blockSize, binary.LittleEndian.Uint64(sb[16:]))
	// Inode table. Each inode is re-encoded into the image, not copied, so
	// Sync writes the bytes the filesystem would write for it, not the
	// padding or stale name bytes the device held.
	per := int(blockSize) / inodeSize
	for blk := 0; blk < inodeBlocks; blk++ {
		data, err := dev.Read(uint64(1 + blk))
		if err != nil {
			return nil, err
		}
		for j := 0; j < per; j++ {
			idx := blk*per + j
			fs.inodes[idx] = decodeInode(data[j*inodeSize : (j+1)*inodeSize])
			fs.encode(idx)
		}
	}
	bm, err := dev.Read(bitmapBlock)
	if err != nil {
		return nil, err
	}
	copy(fs.bitmap, bm[:blockSize])
	return fs, nil
}

// layout returns a filesystem of the given geometry with no files: its
// image holds the superblock and an empty inode table and bitmap. The
// table holds only whole inodes, blockSize/inodeSize to a block.
func layout(dev BlockDev, blockSize, nblocks uint64) *FS {
	fs := &FS{
		dev:       dev,
		blockSize: blockSize,
		nblocks:   nblocks,
		inodes:    make([]inode, inodeBlocks*(blockSize/inodeSize)),
		meta:      make([]byte, firstDataBlk*blockSize),
		blk:       make([]byte, blockSize),
	}
	fs.bitmap = fs.meta[bitmapBlock*blockSize:]
	binary.LittleEndian.PutUint32(fs.meta, magic)
	binary.LittleEndian.PutUint64(fs.meta[8:], blockSize)
	binary.LittleEndian.PutUint64(fs.meta[16:], nblocks)
	return fs
}

func decodeInode(b []byte) inode {
	var in inode
	flags := binary.LittleEndian.Uint64(b)
	if flags&1 == 0 {
		return in
	}
	in.used = true
	in.size = binary.LittleEndian.Uint64(b[8:])
	nameBytes := b[16 : 16+maxName]
	n := 0
	for n < maxName && nameBytes[n] != 0 {
		n++
	}
	in.name = string(nameBytes[:n])
	for i := 0; i < directPtrs; i++ {
		in.ptrs[i] = binary.LittleEndian.Uint64(b[16+maxName+i*8:])
	}
	return in
}

func encodeInode(in inode, b []byte) {
	for i := range b[:inodeSize] {
		b[i] = 0
	}
	if !in.used {
		return
	}
	binary.LittleEndian.PutUint64(b, 1)
	binary.LittleEndian.PutUint64(b[8:], in.size)
	copy(b[16:16+maxName], in.name)
	for i := 0; i < directPtrs; i++ {
		binary.LittleEndian.PutUint64(b[16+maxName+i*8:], in.ptrs[i])
	}
}

// encode re-encodes inode idx into its slot of the metadata image.
func (fs *FS) encode(idx int) {
	per := int(fs.blockSize) / inodeSize
	off := (1+idx/per)*int(fs.blockSize) + idx%per*inodeSize
	encodeInode(fs.inodes[idx], fs.meta[off:])
}

// Sync writes superblock, inode table and bitmap to the device: every
// metadata block, in block order, straight from the image.
func (fs *FS) Sync() error {
	bs := fs.blockSize
	for b := uint64(0); b < firstDataBlk; b++ {
		if err := fs.dev.Write(b, fs.meta[b*bs:(b+1)*bs:(b+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

func (fs *FS) setUsed(block uint64, used bool) {
	byteIdx, bit := block/8, block%8
	if used {
		fs.bitmap[byteIdx] |= 1 << bit
	} else {
		fs.bitmap[byteIdx] &^= 1 << bit
	}
}

func (fs *FS) isUsed(block uint64) bool {
	return fs.bitmap[block/8]&(1<<(block%8)) != 0
}

func (fs *FS) allocBlock() (uint64, error) {
	for b := uint64(firstDataBlk); b < fs.nblocks && b < fs.blockSize*8; b++ {
		if !fs.isUsed(b) {
			fs.setUsed(b, true)
			return b, nil
		}
	}
	return 0, ErrNoSpace
}

func (fs *FS) findInode(name string) int {
	for i := range fs.inodes {
		if fs.inodes[i].used && fs.inodes[i].name == name {
			return i
		}
	}
	return -1
}

// Create makes an empty file. It fails if the name exists or is too long.
func (fs *FS) Create(name string) error {
	if len(name) == 0 || len(name) > maxName {
		return ErrNameTooLong
	}
	if fs.findInode(name) >= 0 {
		return ErrExists
	}
	for i := range fs.inodes {
		if !fs.inodes[i].used {
			fs.inodes[i] = inode{used: true, name: name}
			fs.encode(i)
			return fs.Sync()
		}
	}
	return ErrNoSpace
}

// WriteFile replaces the file's contents (create-if-missing convenience
// plus truncating write — the common case for the workloads).
func (fs *FS) WriteFile(name string, data []byte) error {
	if fs.findInode(name) < 0 {
		if err := fs.Create(name); err != nil {
			return err
		}
	}
	idx := fs.findInode(name)
	in := &fs.inodes[idx]
	if uint64(len(data)) > fs.MaxFileSize() {
		return ErrFileTooBig
	}
	// Copy-on-write: allocate and write the new blocks first, while the old
	// ones stay allocated and the inode untouched. A device error or
	// ErrNoSpace mid-write then rolls back only the fresh allocations — the
	// file keeps its previous contents and the bitmap stays consistent with
	// the inode table. Only a fully written block set is committed.
	var newPtrs [directPtrs]uint64
	nNew := 0
	rollback := func() {
		for i := 0; i < nNew; i++ {
			fs.setUsed(newPtrs[i], false)
		}
	}
	remaining := data
	for len(remaining) > 0 {
		b, err := fs.allocBlock()
		if err != nil {
			rollback()
			return err
		}
		newPtrs[nNew] = b
		nNew++
		n := copy(fs.blk, remaining)
		clear(fs.blk[n:])
		if err := fs.dev.Write(b, fs.blk); err != nil {
			rollback()
			return err
		}
		remaining = remaining[n:]
	}
	// Commit: release the old blocks, install the new pointers and size.
	for _, p := range in.ptrs {
		if p != 0 {
			fs.setUsed(p, false)
		}
	}
	in.ptrs = newPtrs
	in.size = uint64(len(data))
	fs.encode(idx)
	return fs.Sync()
}

// ReadFile returns the file's full contents.
func (fs *FS) ReadFile(name string) ([]byte, error) {
	idx := fs.findInode(name)
	if idx < 0 {
		return nil, ErrNotFound
	}
	in := fs.inodes[idx]
	out := make([]byte, 0, in.size)
	remaining := in.size
	for i := 0; i < directPtrs && remaining > 0; i++ {
		if in.ptrs[i] == 0 {
			break
		}
		blk, err := fs.dev.Read(in.ptrs[i])
		if err != nil {
			return nil, err
		}
		n := remaining
		if n > fs.blockSize {
			n = fs.blockSize
		}
		out = append(out, blk[:n]...)
		remaining -= n
	}
	return out, nil
}

// ReadAt reads n bytes from offset.
func (fs *FS) ReadAt(name string, offset, n uint64) ([]byte, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if offset > uint64(len(data)) {
		return nil, ErrBadOffset
	}
	end := offset + n
	if end > uint64(len(data)) {
		end = uint64(len(data))
	}
	return data[offset:end], nil
}

// Remove deletes a file and frees its blocks.
func (fs *FS) Remove(name string) error {
	idx := fs.findInode(name)
	if idx < 0 {
		return ErrNotFound
	}
	for _, p := range fs.inodes[idx].ptrs {
		if p != 0 {
			fs.setUsed(p, false)
		}
	}
	fs.inodes[idx] = inode{}
	fs.encode(idx)
	return fs.Sync()
}

// Stat returns a file's size.
func (fs *FS) Stat(name string) (uint64, error) {
	idx := fs.findInode(name)
	if idx < 0 {
		return 0, ErrNotFound
	}
	return fs.inodes[idx].size, nil
}

// List returns all file names, sorted.
func (fs *FS) List() []string {
	var out []string
	for i := range fs.inodes {
		if fs.inodes[i].used {
			out = append(out, fs.inodes[i].name)
		}
	}
	sort.Strings(out)
	return out
}

// CheckConsistency cross-checks the allocation bitmap against the inode
// table: metadata blocks allocated, every live file's pointers in range,
// allocated and unshared, pointer count matching the file size, and no
// allocated data block that no file references (a leak). It is the
// post-mortem invariant the fault-injection scenarios assert after failed
// writes.
func (fs *FS) CheckConsistency() error {
	for b := uint64(0); b < firstDataBlk; b++ {
		if !fs.isUsed(b) {
			return fmt.Errorf("fslite: metadata block %d marked free", b)
		}
	}
	owner := make(map[uint64]string)
	for i := range fs.inodes {
		in := &fs.inodes[i]
		if !in.used {
			continue
		}
		want := int((in.size + fs.blockSize - 1) / fs.blockSize)
		got := 0
		for _, p := range in.ptrs {
			if p == 0 {
				continue
			}
			got++
			if p < firstDataBlk || p >= fs.nblocks {
				return fmt.Errorf("fslite: %q points at block %d outside the data area", in.name, p)
			}
			if !fs.isUsed(p) {
				return fmt.Errorf("fslite: %q points at block %d which the bitmap marks free", in.name, p)
			}
			if prev, dup := owner[p]; dup {
				return fmt.Errorf("fslite: block %d shared by %q and %q", p, prev, in.name)
			}
			owner[p] = in.name
		}
		if got != want {
			return fmt.Errorf("fslite: %q has %d blocks for %d bytes (want %d)", in.name, got, in.size, want)
		}
	}
	for b := uint64(firstDataBlk); b < fs.nblocks && b < fs.blockSize*8; b++ {
		if fs.isUsed(b) {
			if _, ok := owner[b]; !ok {
				return fmt.Errorf("fslite: block %d allocated but unreferenced (leak)", b)
			}
		}
	}
	return nil
}

// FreeBlocks returns the number of unallocated data blocks.
func (fs *FS) FreeBlocks() uint64 {
	var n uint64
	for b := uint64(firstDataBlk); b < fs.nblocks && b < fs.blockSize*8; b++ {
		if !fs.isUsed(b) {
			n++
		}
	}
	return n
}
