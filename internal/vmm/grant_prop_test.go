package vmm

import (
	"testing"
	"testing/quick"

	"vmmk/internal/hw"
	"vmmk/internal/simrand"
)

// TestQuickGrantOwnershipInvariants drives random grant operations between
// three domains and checks the safety properties the monitor must uphold no
// matter the interleaving:
//
//  1. every machine frame has exactly one owner in the physical ledger;
//  2. a frame a domain flipped away can never be granted by it again;
//  3. a read-only grant can never move ownership;
//  4. a revoked or consumed grant never works again.
func TestQuickGrantOwnershipInvariants(t *testing.T) {
	type grantRec struct {
		owner DomID
		to    DomID
		ref   GrantRef
		ro    bool
		gone  bool // revoked or consumed
	}
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 256})
		h, d0, err := New(m, 32)
		if err != nil {
			return false
		}
		d1, err := h.CreateDomain("d1", 32)
		if err != nil {
			return false
		}
		d2, err := h.CreateDomain("d2", 32)
		if err != nil {
			return false
		}
		doms := []*Domain{d0, d1, d2}
		var grants []*grantRec

		for step := 0; step < 60; step++ {
			switch r.Intn(4) {
			case 0: // grant a random owned frame
				owner := doms[r.Intn(3)]
				to := doms[r.Intn(3)]
				if owner == to || len(owner.Frames()) == 0 {
					continue
				}
				f := owner.FrameAt(r.Intn(len(owner.Frames())))
				if f == hw.NoFrame {
					continue
				}
				ro := r.Bool(0.3)
				ref, err := h.GrantAccess(owner.ID, f, to.ID, ro)
				if err != nil {
					// Must only fail if the frame isn't owned anymore.
					if owner.OwnsFrame(f) {
						return false
					}
					continue
				}
				grants = append(grants, &grantRec{owner: owner.ID, to: to.ID, ref: ref, ro: ro})
			case 1: // transfer through a random grant
				if len(grants) == 0 {
					continue
				}
				g := grants[r.Intn(len(grants))]
				_, err := h.GrantTransfer(g.to, g.owner, g.ref)
				switch {
				case err == nil:
					if g.gone || g.ro {
						return false // property 3/4 violated
					}
					g.gone = true
				case g.ro && err != ErrGrantReadOnly && !g.gone:
					return false
				}
			case 2: // map through a random grant into a scratch vpn
				if len(grants) == 0 {
					continue
				}
				g := grants[r.Intn(len(grants))]
				err := h.GrantMap(g.to, g.owner, g.ref, hw.VPN(0x4000+step))
				if err == nil && g.gone {
					return false // property 4
				}
			case 3: // revoke a random grant
				if len(grants) == 0 {
					continue
				}
				g := grants[r.Intn(len(grants))]
				if h.GrantRevoke(g.owner, g.ref) == nil {
					g.gone = true
				}
			}
			// Property 1: ledger consistency — every domain's non-hole
			// frame list entry is owned by that domain, and the M2P and
			// resident counts agree with the frame lists.
			if err := h.Audit(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
