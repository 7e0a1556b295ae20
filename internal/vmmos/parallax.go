package vmmos

import (
	"errors"

	"vmmk/internal/fslite"
	"vmmk/internal/hw"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// Parallax is the storage appliance domain from Warfield et al.'s HotOS'05
// paper, which the rebuttal's §3.1 leans on: a dedicated VM that provides
// virtual block devices (with copy-on-write snapshots) to a set of client
// VMs. It is "providing a critical system service" — structurally a
// user-level server, which is why its failure semantics are the heart of
// the liability-inversion experiment E4: when Parallax dies, its clients'
// storage fails, while the monitor, Dom0 and unrelated domains are
// untouched.
//
// Blocks live in Parallax's own memory and are written through to a
// partition it holds on the physical disk via its own blkfront — Parallax
// is itself a client of Dom0, mirroring the real system's structure.
type Parallax struct {
	H   *vmm.Hypervisor
	GK  *GuestKernel
	blk *BlkFront // write-through persistence, may be nil

	vdisks map[vmm.DomID]*VDisk
}

// ErrVDiskUnknown is returned for requests on an unattached client.
var ErrVDiskUnknown = errors.New("vmmos: no virtual disk for this domain")

// VDisk is one client's virtual disk: a block map supporting copy-on-write
// snapshots, with the partition it writes through to. Unwritten blocks
// read as zeros.
type VDisk struct {
	fslite.MemDev
	persist uint64 // physical partition offset for write-through
	size    uint64
}

// NewParallax boots the appliance in its own domain — the decomposed
// structure the real Parallax paper advocates. When dd is non-nil the
// appliance connects a blkfront for write-through persistence.
func NewParallax(h *vmm.Hypervisor, dom *vmm.Domain, dd *DriverDomain, persistBlocks uint64) (*Parallax, error) {
	return NewParallaxOn(NewGuestKernel(h, dom), dd, persistBlocks)
}

// NewParallaxOn boots the appliance on an existing guest kernel. Passing
// Dom0's kernel builds the consolidated "super-VM" §2.2 warns about —
// storage and drivers sharing one failure domain — which the E9d ablation
// measures against the decomposed arrangement.
func NewParallaxOn(gk *GuestKernel, dd *DriverDomain, persistBlocks uint64) (*Parallax, error) {
	px := &Parallax{
		H:      gk.H,
		GK:     gk,
		vdisks: make(map[vmm.DomID]*VDisk),
	}
	if dd != nil && dd.Disk != nil && persistBlocks > 0 {
		// Works for the consolidated case too: the blkfront/blkback pair
		// simply loops back within Dom0 over a self-channel.
		bf, err := ConnectBlk(dd, px.GK, persistBlocks)
		if err != nil {
			return nil, err
		}
		px.blk = bf
	}
	return px, nil
}

// Comp returns the interned trace attribution handle.
func (px *Parallax) Comp() trace.Comp { return px.GK.Comp() }

// AttachClient creates a virtual disk for a client guest and connects the
// guest's block frontend to it.
func (px *Parallax) AttachClient(gk *GuestKernel, size uint64) (*BlkFront, error) {
	bf, err := newBlkFront(px.GK, gk)
	if err != nil {
		return nil, err
	}
	vd := &VDisk{size: size, persist: uint64(len(px.vdisks)) * size}
	px.vdisks[gk.Dom.ID] = vd
	r, client := bf.ring, gk.Dom.ID
	px.GK.ExtraEvent[r.backPort] = func() { px.serve(r, client, vd) }
	return bf, nil
}

// serve handles a client kick: pop requests, run the block map, move data
// through the granted page, notify completion.
func (px *Parallax) serve(r *blkRing, client vmm.DomID, vd *VDisk) {
	comp := px.Comp()
	h := px.H
	reqs := r.reqs.take()
	defer r.reqs.done(reqs)
	const window = hw.VPN(0xE000)
	for _, req := range reqs {
		h.M.CPU.Work(comp, 500) // block-map lookup, CoW bookkeeping
		if req.block >= vd.size {
			req.done, req.ok = true, false
			h.NotifyChannel(px.GK.Dom.ID, r.backPort)
			continue
		}
		if err := h.GrantMap(px.GK.Dom.ID, client, req.ref, window); err != nil {
			req.done, req.ok = true, false
			continue
		}
		e, _ := px.GK.Dom.PT.Lookup(window)
		ps := h.M.Mem.PageSize()
		if req.write {
			// Cache only the page's written prefix (reads load the zero
			// tail back). The write-through passes the same prefix,
			// which BlkFront loads into its own frame before returning.
			src := h.M.Mem.Bytes(e.Frame)
			vd.Write(req.block, src)
			h.M.CPU.Work(comp, h.M.CPU.CopyCost(ps))
			if px.blk != nil {
				// Write-through to the physical partition via Dom0.
				if err := px.blk.Write(vd.persist+req.block, src); err != nil {
					req.done, req.ok = true, false
					h.GrantUnmap(px.GK.Dom.ID, client, req.ref, window)
					h.NotifyChannel(px.GK.Dom.ID, r.backPort)
					continue
				}
			}
		} else {
			h.M.Mem.Load(e.Frame, vd.Block(req.block))
			h.M.CPU.Work(comp, h.M.CPU.CopyCost(ps))
		}
		h.GrantUnmap(px.GK.Dom.ID, client, req.ref, window)
		req.done, req.ok = true, true
		h.NotifyChannel(px.GK.Dom.ID, r.backPort)
	}
}

// Snapshot freezes the current state of a client's disk; later writes go to
// fresh blocks (copy-on-write), earlier data remains readable. Returns the
// number of blocks captured.
func (px *Parallax) Snapshot(client vmm.DomID) (int, error) {
	vd := px.vdisks[client]
	if vd == nil {
		return 0, ErrVDiskUnknown
	}
	px.H.M.CPU.Work(px.Comp(), 800)
	return vd.Snapshot(), nil
}

// SnapshotRead reads from the frozen view (nil if block unwritten at
// snapshot time or no snapshot exists).
func (px *Parallax) SnapshotRead(client vmm.DomID, block uint64) []byte {
	vd := px.vdisks[client]
	if vd == nil {
		return nil
	}
	return vd.Frozen(block)
}
