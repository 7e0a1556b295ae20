package mkos

import (
	"errors"

	"vmmk/internal/fslite"
	"vmmk/internal/mk"
	"vmmk/internal/trace"
)

// StoreServer is the microkernel twin of the Parallax appliance: a
// user-level server providing virtual block devices with copy-on-write
// snapshots to client OS servers, persisting through the disk driver
// server. §3.1's point is precisely that this server and Parallax are the
// same design — "exactly what a user-level server does in a
// microkernel-based system" — so the two implementations mirror each other
// and E4 kills each to compare the wreckage.
type StoreServer struct {
	K      *mk.Kernel
	Space  *mk.Space
	Thread *mk.Thread

	vdisks map[mk.ThreadID]*StoreDisk
	blk    *BlkClient // write-through persistence; may be nil

	replyBuf  []byte    // reused read-reply staging page (the kernel copies replies)
	replyWord [1]uint64 // reused one-word write reply, always 0 (likewise)
}

// ErrNoVDisk is returned for requests from unattached clients.
var ErrNoVDisk = errors.New("mkos: no virtual disk for this client")

// StoreDisk is one client's virtual disk, with the partition it writes
// through to.
type StoreDisk struct {
	fslite.MemDev
	persist uint64
	size    uint64
}

// NewStoreServer boots the storage server in its own protection domain,
// without persistence until SetPersistence installs it.
func NewStoreServer(k *mk.Kernel) (*StoreServer, error) {
	sp, err := k.NewSpace("srv.store", mk.NilThread)
	if err != nil {
		return nil, err
	}
	return NewStoreServerIn(k, sp, "srv.store")
}

// NewStoreServerIn boots the storage server as a thread named name inside
// an existing space — the consolidated arrangement (storage colocated with
// a driver) whose widened blast radius the E9d ablation measures.
// Decomposed callers should use NewStoreServer.
func NewStoreServerIn(k *mk.Kernel, sp *mk.Space, name string) (*StoreServer, error) {
	s := &StoreServer{K: k, Space: sp, vdisks: make(map[mk.ThreadID]*StoreDisk)}
	s.Thread = k.NewThread(sp, name, 6, s.handle)
	return s, nil
}

// Comp returns the server's interned trace attribution handle.
func (s *StoreServer) Comp() trace.Comp { return s.Thread.Comp() }

// SetPersistence installs (or replaces) the server's write-through path,
// typically a BlkClient on the disk driver bound to this server's thread
// ID.
func (s *StoreServer) SetPersistence(blk *BlkClient) { s.blk = blk }

// Attach creates a virtual disk of size blocks for a client OS server and
// installs the store as the client's block service.
func (s *StoreServer) Attach(os *OSServer, size uint64) *BlkClient {
	s.vdisks[os.Thread.ID] = &StoreDisk{persist: uint64(len(s.vdisks)) * size, size: size}
	os.Blk = &BlkClient{k: s.K, server: s.Thread.ID, client: os.Thread.ID}
	return os.Blk
}

// handle serves read/write/snapshot requests from clients.
func (s *StoreServer) handle(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
	comp := s.Comp()
	vd := s.vdisks[from]
	if vd == nil {
		return mk.Msg{}, ErrNoVDisk
	}
	switch msg.Label {
	case LabelBlkRead:
		if len(msg.Words) < 1 || msg.Words[0] >= vd.size {
			return mk.Msg{}, ErrBadRequest
		}
		k.M.CPU.Work(comp, 500) // block-map lookup
		block := msg.Words[0]
		data := vd.Block(block)
		if data == nil && s.blk != nil {
			// Fall through to the persistent copy.
			var err error
			data, err = s.blk.Read(vd.persist + block)
			if err != nil {
				return mk.Msg{}, err
			}
		}
		// Reply via a reused scratch page: the kernel copies the reply
		// into the client's registers, so the buffer is free again as
		// soon as Call returns.
		if cap(s.replyBuf) < int(k.M.Mem.PageSize()) {
			s.replyBuf = make([]byte, k.M.Mem.PageSize())
		}
		out := s.replyBuf[:k.M.Mem.PageSize()]
		clear(out)
		copy(out, data)
		k.M.CPU.Work(comp, k.M.CPU.CopyCost(uint64(len(out))))
		return mk.Msg{Data: out}, nil
	case LabelBlkWrite:
		if len(msg.Words) < 1 || msg.Words[0] >= vd.size {
			return mk.Msg{}, ErrBadRequest
		}
		k.M.CPU.Work(comp, 500)
		block := msg.Words[0]
		// The message is the kernel's once we return, so the disk copies
		// the block. An empty write caches nil, so its reads fall through
		// to the persistent copy.
		vd.Write(block, msg.Data)
		k.M.CPU.Work(comp, k.M.CPU.CopyCost(uint64(len(msg.Data))))
		if s.blk != nil {
			if err := s.blk.Write(vd.persist+block, msg.Data); err != nil {
				return mk.Msg{}, err
			}
		}
		return mk.Msg{Words: s.replyWord[:]}, nil
	case LabelStoreSnapshot:
		k.M.CPU.Work(comp, 800)
		return mk.Msg{Words: []uint64{uint64(vd.Snapshot())}}, nil
	}
	return mk.Msg{}, ErrBadRequest
}

// Snapshot freezes a client's disk, returning the captured block count. It
// sends the client thread's snapshot IPC, the mk twin of Parallax.Snapshot.
func (s *StoreServer) Snapshot(client mk.ThreadID) (uint64, error) {
	reply, err := s.K.Call(client, s.Thread.ID, mk.Msg{Label: LabelStoreSnapshot})
	if err != nil {
		return 0, err
	}
	return reply.Words[0], nil
}

// SnapshotRead returns the frozen view of a client's block (test hook,
// symmetric with Parallax.SnapshotRead).
func (s *StoreServer) SnapshotRead(client mk.ThreadID, block uint64) []byte {
	vd := s.vdisks[client]
	if vd == nil {
		return nil
	}
	return vd.Frozen(block)
}
