package vmm

import (
	"errors"
	"testing"

	"vmmk/internal/hw"
)

func storeRig(t *testing.T) (*vrig, *Store) {
	t.Helper()
	r := newVrig(t, hw.X86())
	return r, NewStore(r.h)
}

func TestStoreHomePrefixWrite(t *testing.T) {
	r, st := storeRig(t)
	home := HomePrefix(r.domU.ID)
	if err := st.Write(r.domU.ID, home+"device/vif/0/state", "connected"); err != nil {
		t.Fatal(err)
	}
	v, err := st.Read(r.domU.ID, home+"device/vif/0/state")
	if err != nil || v != "connected" {
		t.Fatalf("read = %q, %v", v, err)
	}
}

func TestStoreDeniesForeignWrite(t *testing.T) {
	r, st := storeRig(t)
	if err := st.Write(r.domU.ID, "/local/domain/0/backend", "evil"); !errors.Is(err, ErrStorePerm) {
		t.Fatalf("err = %v, want ErrStorePerm", err)
	}
	// A path belongs to its first writer, even inside another domain's
	// home prefix.
	path := HomePrefix(r.domU.ID) + "backend"
	if err := st.Write(r.dom0.ID, path, "dom0's"); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(r.domU.ID, path, "evil"); !errors.Is(err, ErrStorePerm) {
		t.Fatalf("overwrite of dom0's path: err = %v, want ErrStorePerm", err)
	}
}

func TestStorePrivilegedWritesAnywhere(t *testing.T) {
	r, st := storeRig(t)
	if err := st.Write(r.dom0.ID, "/vm/"+r.domU.Name+"/name", "guest one"); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReadMissing(t *testing.T) {
	r, st := storeRig(t)
	if _, err := st.Read(r.domU.ID, "/nope"); !errors.Is(err, ErrStoreNoEntry) {
		t.Fatalf("err = %v, want ErrStoreNoEntry", err)
	}
}

func TestStoreBadPaths(t *testing.T) {
	r, st := storeRig(t)
	for _, p := range []string{"", "noslash", "/", "/a//b"} {
		if err := st.Write(r.dom0.ID, p, "x"); !errors.Is(err, ErrStoreBadPath) {
			t.Errorf("path %q: err = %v, want ErrStoreBadPath", p, err)
		}
	}
}

func TestStoreDeadDomainOps(t *testing.T) {
	r, st := storeRig(t)
	r.h.DestroyDomain(r.domU.ID)
	if err := st.Write(r.domU.ID, HomePrefix(r.domU.ID)+"x", "y"); !errors.Is(err, ErrDomainDead) {
		t.Fatalf("err = %v, want ErrDomainDead", err)
	}
	if _, err := st.Read(r.domU.ID, "/x"); !errors.Is(err, ErrDomainDead) {
		t.Fatalf("err = %v, want ErrDomainDead", err)
	}
}

func TestBalloonOutIn(t *testing.T) {
	r := newVrig(t, hw.X86())
	owned0 := r.domU.OwnedPages()
	free0 := r.m.Mem.FreeFrames()

	out, err := r.h.BalloonOut(r.domU.ID, 10)
	if err != nil || out != 10 {
		t.Fatalf("balloon out = %d, %v", out, err)
	}
	audit(t, r.h)
	if r.domU.OwnedPages() != owned0-10 {
		t.Fatal("owned pages wrong after deflate")
	}
	if r.m.Mem.FreeFrames() != free0+10 {
		t.Fatal("machine pool wrong after deflate")
	}

	in, err := r.h.BalloonIn(r.domU.ID, 10)
	if err != nil || in != 10 {
		t.Fatalf("balloon in = %d, %v", in, err)
	}
	audit(t, r.h)
	if r.domU.OwnedPages() != owned0 {
		t.Fatal("owned pages wrong after inflate")
	}
	// Holes must be gone.
	for gpn := 0; gpn < len(r.domU.Frames()); gpn++ {
		if r.domU.FrameAt(gpn) == hw.NoFrame {
			t.Fatalf("hole at gpn %d after inflate", gpn)
		}
	}
}

func TestBalloonOutUnmapsPages(t *testing.T) {
	r := newVrig(t, hw.X86())
	last := len(r.domU.Frames()) - 1
	if err := r.h.MMUUpdate(r.domU.ID, 0x600, last, hw.PermRW, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.BalloonOut(r.domU.ID, 1); err != nil {
		t.Fatal(err)
	}
	audit(t, r.h)
	if _, ok := r.domU.PT.Lookup(0x600); ok {
		t.Fatal("ballooned-out page still mapped — guest could touch free memory")
	}
}

func TestBalloonInExhaustion(t *testing.T) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 70})
	h, _, err := New(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	dU, err := h.CreateDomain("u", 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.BalloonIn(dU.ID, 10) // only ~2 frames left
	if !errors.Is(err, ErrBalloonEmpty) {
		t.Fatalf("err = %v, want ErrBalloonEmpty", err)
	}
	audit(t, h)
}
