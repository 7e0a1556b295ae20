package mk

import (
	"testing"
	"testing/quick"

	"vmmk/internal/hw"
)

// chainRig builds A -> B -> C: A maps a page to B, B maps it onward to C.
type chainRig struct {
	m       *hw.Machine
	k       *Kernel
	a, b, c *Space
	at, bt  *Thread
	ct      *Thread
	frame   hw.FrameID
}

func newChainRig(t *testing.T) *chainRig {
	t.Helper()
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 64})
	k := New(m)
	a, _ := k.NewSpace("a", NilThread)
	b, _ := k.NewSpace("b", NilThread)
	c, _ := k.NewSpace("c", NilThread)
	echo := func(k *Kernel, from ThreadID, msg Msg) (Msg, error) { return Msg{}, nil }
	at := k.NewThread(a, "a", 1, echo)
	bt := k.NewThread(b, "b", 1, echo)
	ct := k.NewThread(c, "c", 1, echo)
	frames, err := k.AllocAndMap(a, 0x10, 1, hw.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	r := &chainRig{m: m, k: k, a: a, b: b, c: c, at: at, bt: bt, ct: ct, frame: frames[0]}
	// A -> B at 0x20.
	if _, err := k.Call(at.ID, bt.ID, Msg{Map: []MapItem{{SrcVPN: 0x10, DstVPN: 0x20, Count: 1, Perms: hw.PermRW}}}); err != nil {
		t.Fatal(err)
	}
	// B -> C at 0x30.
	if _, err := k.Call(bt.ID, ct.ID, Msg{Map: []MapItem{{SrcVPN: 0x20, DstVPN: 0x30, Count: 1, Perms: hw.PermR}}}); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMapDBTracksDerivations(t *testing.T) {
	r := newChainRig(t)
	if got := r.k.MappingChildren(r.a, 0x10); got != 1 {
		t.Fatalf("A children = %d, want 1", got)
	}
	if got := r.k.MappingChildren(r.b, 0x20); got != 1 {
		t.Fatalf("B children = %d, want 1", got)
	}
}

func TestUnmapRecursiveRevokesWholeChain(t *testing.T) {
	r := newChainRig(t)
	n := r.k.UnmapRecursive(r.a, 0x10, true)
	if n != 3 {
		t.Fatalf("revoked %d mappings, want 3 (A, B, C)", n)
	}
	for _, probe := range []struct {
		s   *Space
		vpn hw.VPN
	}{{r.a, 0x10}, {r.b, 0x20}, {r.c, 0x30}} {
		if _, ok := probe.s.PT.Lookup(probe.vpn); ok {
			t.Fatalf("mapping in %s survived recursive unmap", probe.s.Name)
		}
	}
}

func TestUnmapRecursiveChildrenOnly(t *testing.T) {
	r := newChainRig(t)
	n := r.k.UnmapRecursive(r.a, 0x10, false)
	if n != 2 {
		t.Fatalf("revoked %d, want 2 (B and C, not A)", n)
	}
	if _, ok := r.a.PT.Lookup(0x10); !ok {
		t.Fatal("root mapping must survive children-only flush")
	}
}

func TestUnmapMidChainKeepsAncestors(t *testing.T) {
	r := newChainRig(t)
	n := r.k.UnmapRecursive(r.b, 0x20, true)
	if n != 2 {
		t.Fatalf("revoked %d, want 2 (B and C)", n)
	}
	if _, ok := r.a.PT.Lookup(0x10); !ok {
		t.Fatal("ancestor mapping must survive")
	}
	if _, ok := r.c.PT.Lookup(0x30); ok {
		t.Fatal("descendant survived")
	}
}

func TestGrantBreaksDerivationChain(t *testing.T) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 64})
	k := New(m)
	a, _ := k.NewSpace("a", NilThread)
	b, _ := k.NewSpace("b", NilThread)
	echo := func(k *Kernel, from ThreadID, msg Msg) (Msg, error) { return Msg{}, nil }
	at := k.NewThread(a, "a", 1, echo)
	bt := k.NewThread(b, "b", 1, echo)
	if _, err := k.AllocAndMap(a, 0x10, 1, hw.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Call(at.ID, bt.ID, Msg{Map: []MapItem{{SrcVPN: 0x10, DstVPN: 0x20, Count: 1, Perms: hw.PermRW, Grant: true}}}); err != nil {
		t.Fatal(err)
	}
	// The gift is B's now; A has no mapping and no revocation authority.
	if n := k.UnmapRecursive(a, 0x10, true); n != 0 {
		t.Fatalf("grant left %d revocable mappings behind", n)
	}
	if _, ok := b.PT.Lookup(0x20); !ok {
		t.Fatal("granted mapping must survive the donor's unmap")
	}
}

func TestRemapSeversOldDerivation(t *testing.T) {
	r := newChainRig(t)
	// B's 0x20 gets overwritten by an unrelated direct mapping; the old
	// derivation from A must be severed so A's revocation no longer
	// reaches it (and C, derived from the old page, still falls with B's
	// old chain... here C's parent was B@0x20 which now refers to the new
	// mapping; L4 semantics tie derivation to the page, and our model
	// severs on overwrite).
	f2, err := r.m.Mem.Alloc(r.m.Rec.Intern("mk.b"))
	if err != nil {
		t.Fatal(err)
	}
	r.k.MapPage(r.b, 0x20, f2, hw.PermRW)
	// Re-record by a fresh map item from B to a new space D.
	if n := r.k.UnmapRecursive(r.a, 0x10, true); n != 1 {
		t.Fatalf("revoked %d, want 1 (only A; B's slot was overwritten)", n)
	}
	_ = f2
}

func TestKernelMapPageSeversDerivation(t *testing.T) {
	r := newChainRig(t)
	r.k.UnmapPage(r.b, 0x20)
	// C's mapping survives a plain (non-recursive) unmap of its parent,
	// but the derivation bookkeeping for B must be gone.
	if _, ok := r.c.PT.Lookup(0x30); !ok {
		t.Fatal("plain unmap must not recurse")
	}
	if got := r.k.MappingChildren(r.a, 0x10); got != 0 {
		t.Fatalf("A still has %d children after B's unmap", got)
	}
}

func TestQuickMapDBNoOrphans(t *testing.T) {
	// Random map/unmap sequences never leave a child whose parent is
	// unknown to the database.
	f := func(ops []uint8) bool {
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 128})
		k := New(m)
		spaces := make([]*Space, 4)
		threads := make([]*Thread, 4)
		echo := func(k *Kernel, from ThreadID, msg Msg) (Msg, error) { return Msg{}, nil }
		for i := range spaces {
			spaces[i], _ = k.NewSpace(string(rune('a'+i)), NilThread)
			threads[i] = k.NewThread(spaces[i], string(rune('a'+i)), 1, echo)
		}
		if _, err := k.AllocAndMap(spaces[0], 0, 8, hw.PermRW); err != nil {
			return false
		}
		for _, op := range ops {
			src := int(op) % 4
			dst := (int(op) / 4) % 4
			vpn := hw.VPN(op % 8)
			if src == dst {
				k.UnmapRecursive(spaces[src], vpn, op%2 == 0)
				continue
			}
			// Mapping may fail if src has nothing there; fine.
			k.Call(threads[src].ID, threads[dst].ID, Msg{
				Map: []MapItem{{SrcVPN: vpn, DstVPN: vpn, Count: 1, Perms: hw.PermR}},
			})
		}
		// Invariant: every parent pointer has a matching child entry.
		for child, parent := range k.mapdb.parent {
			found := false
			for _, c := range k.mapdb.children[parent] {
				if c == child {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
