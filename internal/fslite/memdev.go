package fslite

// MemDev is an in-memory block device with one copy-on-write snapshot. It
// is every in-memory virtual disk in the tree: Parallax's VDisk and the mk
// store server's StoreDisk embed one, and the filesystem's fault-injection
// rows and tests mount over one.
//
// A block keeps the prefix last written to it, in a buffer of its own that
// an overwrite reuses, and reads as that prefix followed by zeros; an empty
// write keeps nil. Snapshot freezes the live blocks, so a later write to a
// block gets a fresh buffer and a frozen block never changes.
//
// The zero value is an empty device; its map is made on the first write.
// Read needs the block size NewMemDev sets. The storage servers, which
// read through Block, embed the zero value.
type MemDev struct {
	live   map[uint64][]byte
	frozen map[uint64][]byte // nil until the first Snapshot
	size   uint64            // Read's block size
	buf    []byte            // Read's result, reused
}

// NewMemDev returns an empty device whose Read returns blocks of
// blockSize bytes.
func NewMemDev(blockSize uint64) *MemDev { return &MemDev{size: blockSize} }

// Read returns the block as it reads now, its prefix followed by zeros, in
// a buffer the device reuses, valid until its next Read.
func (d *MemDev) Read(block uint64) ([]byte, error) {
	if uint64(cap(d.buf)) < d.size {
		d.buf = make([]byte, d.size)
	}
	out := d.buf[:d.size]
	n := copy(out, d.Block(block))
	clear(out[n:])
	return out, nil
}

// Write makes data the block's prefix. It copies data into the block's own
// buffer, so the caller may reuse it at once.
func (d *MemDev) Write(block uint64, data []byte) error {
	if d.live == nil {
		d.live = make(map[uint64][]byte)
	}
	if len(data) == 0 {
		d.live[block] = nil
		return nil
	}
	d.live[block] = append(d.live[block][:0], data...)
	return nil
}

// Block returns the block's prefix: the one last written since the last
// Snapshot, else the frozen one. It is nil for a block never written and
// for one whose last write was empty. The slice is the device's own: the
// caller must not change it, and an overwrite of the block changes it.
func (d *MemDev) Block(block uint64) []byte {
	if b, ok := d.live[block]; ok {
		return b
	}
	return d.frozen[block]
}

// Snapshot freezes every block written since the last Snapshot, over what
// that one froze, and returns how many it froze.
func (d *MemDev) Snapshot() int {
	n := len(d.live)
	if d.frozen == nil {
		d.frozen = d.live
	} else {
		for b, data := range d.live {
			d.frozen[b] = data
		}
	}
	d.live = nil
	return n
}

// Frozen returns the block's prefix as the snapshots froze it: nil for a
// block no Snapshot froze, or frozen after an empty write.
func (d *MemDev) Frozen(block uint64) []byte { return d.frozen[block] }
