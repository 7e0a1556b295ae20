package scenario

import (
	"bytes"
	"fmt"

	"vmmk/internal/fslite"
)

// fslite rows: device failures under the filesystem. The property every row
// guards is crash consistency — a failed write must leave the old contents,
// the allocation bitmap and the inode table in agreement (WriteFile is
// copy-on-write precisely so this holds).

// fsState carries the filesystem under test from Run to the post-mortem
// checks.
type fsState struct {
	fs    *fslite.FS
	fd    *FaultDev
	inner *fslite.MemDev
	free0 uint64 // FreeBlocks before the faulted operation
	old   []byte // the file's committed contents before the fault
	fresh []byte // the contents the non-faulted write installs
}

const fsBlock = 512

// fsFill returns n blocks of deterministic content tagged by c.
func fsFill(c byte, blocks int) []byte {
	b := make([]byte, blocks*fsBlock)
	for i := range b {
		b[i] = c
	}
	return b
}

// fsCheckIntact verifies consistency plus the armed/disarmed content split:
// armed legs must still read the old contents, control legs the new.
func fsCheckIntact(env *Env) error {
	st := env.State.(*fsState)
	if err := st.fs.CheckConsistency(); err != nil {
		return err
	}
	want := st.fresh
	if env.Armed {
		want = st.old
		if got := st.fs.FreeBlocks(); got != st.free0 {
			return fmt.Errorf("free blocks %d after rollback, want %d", got, st.free0)
		}
	}
	got, err := st.fs.ReadFile("f")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("file contents changed: got %d bytes tagged %q", len(got), got[:1])
	}
	return nil
}

// fsliteRows is the fslite layer's share of the matrix.
var fsliteRows = []S{
	{
		ID:        "fslite/write-device-error-midfile",
		Subsystem: "fslite",
		Fault:     "block device dies on the 2nd write of a 3-block file rewrite",
		Expect: Outcome{
			Desc:  "ErrDeviceFault; old contents, bitmap and free count intact",
			Err:   ErrDeviceFault,
			Check: fsCheckIntact,
		},
		Run: func(env *Env) error {
			inner := fslite.NewMemDev(fsBlock)
			fd := &FaultDev{Inner: inner}
			fs, err := fslite.Mkfs(fd, fsBlock, 128)
			if err != nil {
				return err
			}
			st := &fsState{fs: fs, fd: fd, inner: inner, old: fsFill('a', 2), fresh: fsFill('b', 3)}
			if err := fs.WriteFile("f", st.old); err != nil {
				return err
			}
			st.free0 = fs.FreeBlocks()
			env.State = st
			if env.Armed {
				fd.FailWrite = fd.Writes() + 2
			}
			return fs.WriteFile("f", st.fresh)
		},
	},

	{
		ID:        "fslite/write-torn-multiblock",
		Subsystem: "fslite",
		Fault:     "torn write: the 3rd block of a rewrite lands half-written, then the device errors",
		Expect: Outcome{
			Desc: "ErrDeviceFault; in-memory and on-disk images both show the old file",
			Err:  ErrDeviceFault,
			Check: func(env *Env) error {
				if err := fsCheckIntact(env); err != nil {
					return err
				}
				// Remount from the raw device: the torn block hit a fresh
				// (copy-on-write) block, so the on-disk metadata still
				// describes the old file in both legs' failure story —
				// armed shows old, control committed the new image.
				st := env.State.(*fsState)
				fs2, err := fslite.Mount(st.inner, fsBlock)
				if err != nil {
					return err
				}
				if err := fs2.CheckConsistency(); err != nil {
					return fmt.Errorf("remounted image: %w", err)
				}
				want := st.fresh
				if env.Armed {
					want = st.old
				}
				got, err := fs2.ReadFile("f")
				if err != nil {
					return err
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("remounted contents: got %d bytes tagged %q", len(got), got[:1])
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			inner := fslite.NewMemDev(fsBlock)
			fd := &FaultDev{Inner: inner, Torn: true}
			fs, err := fslite.Mkfs(fd, fsBlock, 128)
			if err != nil {
				return err
			}
			st := &fsState{fs: fs, fd: fd, inner: inner, old: fsFill('a', 2), fresh: fsFill('b', 3)}
			if err := fs.WriteFile("f", st.old); err != nil {
				return err
			}
			st.free0 = fs.FreeBlocks()
			env.State = st
			if env.Armed {
				fd.FailWrite = fd.Writes() + 3
			}
			return fs.WriteFile("f", st.fresh)
		},
	},

	{
		ID:        "fslite/write-no-space-midfile",
		Subsystem: "fslite",
		Fault:     "file data exceeds the blocks left on a nearly full disk",
		Expect: Outcome{
			Desc: "ErrNoSpace; partial allocation rolled back, first file untouched",
			Err:  fslite.ErrNoSpace,
			Check: func(env *Env) error {
				st := env.State.(*fsState)
				if err := st.fs.CheckConsistency(); err != nil {
					return err
				}
				got, err := st.fs.ReadFile("f")
				if err != nil {
					return err
				}
				if !bytes.Equal(got, st.old) {
					return fmt.Errorf("first file damaged: %d bytes", len(got))
				}
				if env.Armed {
					if free := st.fs.FreeBlocks(); free != st.free0 {
						return fmt.Errorf("free blocks %d after rollback, want %d", free, st.free0)
					}
					if size, err := st.fs.Stat("b"); err != nil || size != 0 {
						return fmt.Errorf("failed file has size %d (err %v), want 0", size, err)
					}
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			inner := fslite.NewMemDev(fsBlock)
			fd := &FaultDev{Inner: inner}
			fs, err := fslite.Mkfs(fd, fsBlock, 64)
			if err != nil {
				return err
			}
			st := &fsState{fs: fs, fd: fd, inner: inner, old: fsFill('a', 2)}
			if err := fs.WriteFile("f", st.old); err != nil {
				return err
			}
			// Fill until fewer free blocks remain than one max-size file,
			// so the armed demand cannot trip ErrFileTooBig instead. The
			// fillers are max-size themselves: blocks run out long before
			// the inode table does.
			maxBlocks := int(fs.MaxFileSize() / fsBlock)
			for i := 0; fs.FreeBlocks() >= uint64(maxBlocks); i++ {
				if err := fs.WriteFile(fmt.Sprintf("fill%d", i), fsFill('x', maxBlocks)); err != nil {
					return err
				}
			}
			st.free0 = fs.FreeBlocks()
			env.State = st
			blocks := int(st.free0) // fits exactly
			if env.Armed {
				blocks = int(st.free0) + 1 // one block over
			}
			return fs.WriteFile("b", fsFill('b', blocks))
		},
	},

	{
		ID:        "fslite/sync-torn-metadata",
		Subsystem: "fslite",
		Fault:     "device dies on the superblock write of the commit Sync",
		Expect: Outcome{
			Desc: "ErrDeviceFault; remount sees the pre-write image",
			Err:  ErrDeviceFault,
			Check: func(env *Env) error {
				st := env.State.(*fsState)
				// On-disk: the commit Sync died before any metadata block
				// landed, so a remount of the raw device shows the old
				// file (armed) or the committed new one (control).
				fs2, err := fslite.Mount(st.inner, fsBlock)
				if err != nil {
					return err
				}
				if err := fs2.CheckConsistency(); err != nil {
					return fmt.Errorf("remounted image: %w", err)
				}
				want := st.fresh
				if env.Armed {
					want = st.old
				}
				got, err := fs2.ReadFile("f")
				if err != nil {
					return err
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("remounted contents: got %d bytes tagged %q", len(got), got[:1])
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			inner := fslite.NewMemDev(fsBlock)
			fd := &FaultDev{Inner: inner}
			fs, err := fslite.Mkfs(fd, fsBlock, 128)
			if err != nil {
				return err
			}
			st := &fsState{fs: fs, fd: fd, inner: inner, old: fsFill('a', 2), fresh: fsFill('b', 3)}
			if err := fs.WriteFile("f", st.old); err != nil {
				return err
			}
			env.State = st
			if env.Armed {
				// 3 data writes pass; the 4th write is Sync's first
				// metadata block (the superblock).
				fd.FailWrite = fd.Writes() + 4
			}
			return fs.WriteFile("f", st.fresh)
		},
	},

	{
		ID:        "fslite/read-device-error",
		Subsystem: "fslite",
		Fault:     "block device dies before a file read",
		Expect: Outcome{
			Desc: "ErrDeviceFault from ReadFile; metadata unharmed",
			Err:  ErrDeviceFault,
			Check: func(env *Env) error {
				return env.State.(*fsState).fs.CheckConsistency()
			},
		},
		Run: func(env *Env) error {
			inner := fslite.NewMemDev(fsBlock)
			fd := &FaultDev{Inner: inner}
			fs, err := fslite.Mkfs(fd, fsBlock, 64)
			if err != nil {
				return err
			}
			st := &fsState{fs: fs, fd: fd, inner: inner, old: fsFill('a', 3)}
			if err := fs.WriteFile("f", st.old); err != nil {
				return err
			}
			env.State = st
			if env.Armed {
				fd.FailRead = 1
			}
			got, err := fs.ReadFile("f")
			if err != nil {
				return err
			}
			if !bytes.Equal(got, st.old) {
				return fmt.Errorf("read back %d bytes, want %d", len(got), len(st.old))
			}
			return nil
		},
	},

	{
		ID:        "fslite/mount-corrupt-superblock",
		Subsystem: "fslite",
		Fault:     "superblock overwritten with garbage before mount",
		Expect: Outcome{
			Desc: "ErrNotFormatted from Mount",
			Err:  fslite.ErrNotFormatted,
		},
		Run: func(env *Env) error {
			inner := fslite.NewMemDev(fsBlock)
			fs, err := fslite.Mkfs(inner, fsBlock, 64)
			if err != nil {
				return err
			}
			content := fsFill('a', 2)
			if err := fs.WriteFile("f", content); err != nil {
				return err
			}
			if env.Armed {
				junk := make([]byte, fsBlock)
				for i := range junk {
					junk[i] = 0xFF
				}
				if err := inner.Write(0, junk); err != nil {
					return err
				}
			}
			fs2, err := fslite.Mount(inner, fsBlock)
			if err != nil {
				return err
			}
			got, err := fs2.ReadFile("f")
			if err != nil {
				return err
			}
			if !bytes.Equal(got, content) {
				return fmt.Errorf("mounted contents differ: %d bytes", len(got))
			}
			return nil
		},
	},
}
