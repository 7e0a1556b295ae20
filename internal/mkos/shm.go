package mkos

import (
	"errors"

	"vmmk/internal/hw"
	"vmmk/internal/mk"
)

// Shared memory regions: the classic microkernel pattern of using IPC once
// to establish a shared mapping, then exchanging bulk data with no kernel
// involvement at all. Setup is a map-item IPC (mutual agreement: the owner
// offers, the peer accepts by receiving); teardown is the owner's recursive
// unmap, which revokes the peer's view through the mapping database no
// matter how far it was re-delegated. Liedtke's three IPC purposes, then
// silence — the opposite end of the spectrum from the VMM's per-operation
// grant machinery.

// ErrShmRevoked is returned when touching a region after revocation.
var ErrShmRevoked = errors.New("mkos: shared region was revoked")

// ShmRegion is an owner's handle on a shared region.
type ShmRegion struct {
	K       *mk.Kernel
	Owner   *mk.Space
	BaseVPN hw.VPN
	Pages   int
	frames  []hw.FrameID
	revoked bool
}

// ShmView is a peer's mapped view of a region.
type ShmView struct {
	region  *ShmRegion
	Space   *mk.Space
	BaseVPN hw.VPN
}

// NewShmRegion allocates pages frames in the owner's space at baseVPN.
func NewShmRegion(k *mk.Kernel, owner *mk.Space, baseVPN hw.VPN, pages int) (*ShmRegion, error) {
	frames, err := k.AllocAndMap(owner, baseVPN, pages, hw.PermRW)
	if err != nil {
		return nil, err
	}
	return &ShmRegion{K: k, Owner: owner, BaseVPN: baseVPN, Pages: pages, frames: frames}, nil
}

// Share maps the region into the peer's space at dstVPN with the given
// rights, via one IPC call from the owner thread to the peer thread (the
// peer's handler models its acceptance).
func (r *ShmRegion) Share(from, to mk.ThreadID, peer *mk.Space, dstVPN hw.VPN, perms hw.Perm) (*ShmView, error) {
	if r.revoked {
		return nil, ErrShmRevoked
	}
	_, err := r.K.Call(from, to, mk.Msg{
		Map: []mk.MapItem{{SrcVPN: r.BaseVPN, DstVPN: dstVPN, Count: r.Pages, Perms: perms}},
	})
	if err != nil {
		return nil, err
	}
	return &ShmView{region: r, Space: peer, BaseVPN: dstVPN}, nil
}

// Write stores data into the region at a page offset, through the owner's
// mapping — ordinary memory traffic, no kernel entry.
func (r *ShmRegion) Write(page int, data []byte) error {
	if r.revoked {
		return ErrShmRevoked
	}
	if page < 0 || page >= r.Pages {
		return mk.ErrBadMapping
	}
	r.K.M.Mem.Write(r.frames[page], 0, data)
	r.K.M.CPU.Work(r.Owner.Comp(), r.K.M.CPU.CopyCost(uint64(len(data))))
	return nil
}

// Read returns the page's contents through the peer's view, after checking
// the view's mapping is still live (a revoked view faults).
func (v *ShmView) Read(page int, n int) ([]byte, error) {
	e, ok := v.Space.PT.Lookup(v.BaseVPN + hw.VPN(page))
	if !ok {
		return nil, ErrShmRevoked
	}
	out := make([]byte, n)
	v.region.K.M.Mem.Read(e.Frame, 0, out)
	v.region.K.M.CPU.Work(v.Space.Comp(), v.region.K.M.CPU.CopyCost(uint64(n)))
	return out, nil
}

// Alive reports whether the view's first page is still mapped.
func (v *ShmView) Alive() bool {
	_, ok := v.Space.PT.Lookup(v.BaseVPN)
	return ok
}

// Revoke withdraws every view of the region, however many times it was
// re-delegated, through the mapping database. The owner keeps its own
// mapping.
func (r *ShmRegion) Revoke() int {
	if r.revoked {
		return 0
	}
	n := 0
	for i := 0; i < r.Pages; i++ {
		n += r.K.UnmapRecursive(r.Owner, r.BaseVPN+hw.VPN(i), false)
	}
	return n
}

// Destroy revokes all views and releases the region's frames.
func (r *ShmRegion) Destroy() {
	if r.revoked {
		return
	}
	r.Revoke()
	for i, f := range r.frames {
		r.K.UnmapPage(r.Owner, r.BaseVPN+hw.VPN(i))
		r.K.M.Mem.Free(f)
	}
	r.revoked = true
}
