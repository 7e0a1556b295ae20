package mk

import (
	"vmmk/internal/hw"
)

// The mapping database tracks the derivation tree of delegated pages, which
// is what makes L4's unmap a *revocation* primitive: when a pager or server
// unmaps a page it handed out, every mapping transitively derived from it
// disappears too. Grants are not recorded — ownership moved, so the sender
// keeps no revocation authority (this is the semantic difference between
// L4's map and grant, and between a loan and a gift).
//
// The database is the third face of the paper's single-primitive argument:
// resource delegation by mutual agreement, with the delegator retaining
// control. The VMM needs a separate mechanism (grant-table revocation,
// which cannot recurse) for the same job.

// mapNode identifies one mapping: a page in a space.
type mapNode struct {
	space SpaceID
	vpn   hw.VPN
}

// mapDB is the kernel's derivation forest. Its zero value is empty: only
// record writes to it, and record makes the maps on first use.
type mapDB struct {
	children map[mapNode][]mapNode
	parent   map[mapNode]mapNode
}

// record notes that dst was derived from src by a map (not grant) item.
// A page can have at most one parent; re-mapping over an existing child
// first detaches its old derivation (and orphans anything derived from the
// overwritten mapping — those pages remain mapped but are no longer
// revocable through this slot).
func (db *mapDB) record(src, dst mapNode) {
	db.drop(dst)
	if db.children == nil {
		db.children = make(map[mapNode][]mapNode)
		db.parent = make(map[mapNode]mapNode)
	}
	db.children[src] = append(db.children[src], dst)
	db.parent[dst] = src
}

// sever removes dst from its parent's child list (dst's own subtree is
// untouched — used when dst is overwritten by an unrelated mapping).
func (db *mapDB) sever(dst mapNode) {
	p, ok := db.parent[dst]
	if !ok {
		return
	}
	kids := db.children[p]
	for i, k := range kids {
		if k == dst {
			db.children[p] = append(kids[:i], kids[i+1:]...)
			break
		}
	}
	delete(db.parent, dst)
}

// subtree returns every node transitively derived from n, depth first,
// excluding n itself.
func (db *mapDB) subtree(n mapNode) []mapNode {
	var out []mapNode
	stack := append([]mapNode(nil), db.children[n]...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, cur)
		stack = append(stack, db.children[cur]...)
	}
	return out
}

// drop removes n from the forest: detached from its parent, and its direct
// children become roots (their mappings, if any, survive; only the
// revocation path through n is gone).
func (db *mapDB) drop(n mapNode) {
	db.sever(n)
	for _, c := range db.children[n] {
		delete(db.parent, c)
	}
	delete(db.children, n)
}

// UnmapRecursive revokes the mapping at (s, vpn) and every mapping derived
// from it in other spaces, charging PTE and TLB costs per revoked entry.
// If revokeSelf is false the root mapping stays (the L4 "flush children
// only" mode used by pagers that want to downgrade, not discard). It
// returns the number of mappings removed.
func (k *Kernel) UnmapRecursive(s *Space, vpn hw.VPN, revokeSelf bool) int {
	root := mapNode{space: s.ID, vpn: vpn}
	victims := k.mapdb.subtree(root)
	n := 0
	for i := len(victims) - 1; i >= 0; i-- { // leaves first
		v := victims[i]
		vs := k.spaces[v.space]
		if _, ok := vs.PT.Lookup(v.vpn); ok {
			vs.PT.Unmap(v.vpn)
			k.M.CPU.Work(k.comp, k.M.Arch.Costs.PTEUpdate)
			k.M.CPU.FlushTLBEntry(k.comp)
			n++
		}
		k.mapdb.drop(v)
	}
	if revokeSelf {
		if _, ok := s.PT.Lookup(vpn); ok {
			s.PT.Unmap(vpn)
			k.M.CPU.Work(k.comp, k.M.Arch.Costs.PTEUpdate)
			k.M.CPU.FlushTLBEntry(k.comp)
			n++
		}
		k.mapdb.drop(root)
	}
	return n
}

// MappingChildren returns how many direct derivations exist for (s, vpn) —
// an introspection hook for tests and the census.
func (k *Kernel) MappingChildren(s *Space, vpn hw.VPN) int {
	return len(k.mapdb.children[mapNode{space: s.ID, vpn: vpn}])
}
