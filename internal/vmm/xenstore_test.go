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
	home := homePrefix(r.domU.ID)
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
}

func TestStorePrivilegedWritesAnywhere(t *testing.T) {
	r, st := storeRig(t)
	if err := st.Write(r.dom0.ID, "/vm/"+r.domU.Name+"/name", "guest one"); err != nil {
		t.Fatal(err)
	}
}

func TestStoreGrantWrite(t *testing.T) {
	r, st := storeRig(t)
	path := "/local/domain/0/backend/vbd/1/state"
	if err := st.GrantWrite(r.dom0.ID, r.domU.ID, path); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(r.domU.ID, path, "ready"); err != nil {
		t.Fatal(err)
	}
	// Granting requires privilege.
	if err := st.GrantWrite(r.domU.ID, r.domU.ID, "/x/y"); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("err = %v, want ErrNotPrivileged", err)
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

func TestStoreList(t *testing.T) {
	r, st := storeRig(t)
	st.Write(r.dom0.ID, "/vm/a/name", "1")
	st.Write(r.dom0.ID, "/vm/b/name", "2")
	st.Write(r.dom0.ID, "/vm/b/memory", "64")
	kids, err := st.List(r.dom0.ID, "/vm")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0] != "a" || kids[1] != "b" {
		t.Fatalf("list = %v", kids)
	}
}

func TestStoreWatchFires(t *testing.T) {
	r, st := storeRig(t)
	var got []string
	err := st.Watch(r.dom0.ID, "/local/domain/1/device", func(p, v string) {
		got = append(got, p+"="+v)
	})
	if err != nil {
		t.Fatal(err)
	}
	home := homePrefix(r.domU.ID)
	st.Write(r.domU.ID, home+"device/vif/0/state", "init")
	if len(got) != 1 || got[0] != home+"device/vif/0/state=init" {
		t.Fatalf("watch deliveries = %v", got)
	}
	// Unrelated path: no fire.
	st.Write(r.dom0.ID, "/vm/x", "y")
	if len(got) != 1 {
		t.Fatal("watch fired for unrelated path")
	}
}

func TestStoreWatchSkipsDeadWatcher(t *testing.T) {
	r, st := storeRig(t)
	fired := false
	st.Watch(r.domU.ID, "/vm", func(p, v string) { fired = true })
	r.h.DestroyDomain(r.domU.ID)
	st.Write(r.dom0.ID, "/vm/x", "y")
	if fired {
		t.Fatal("dead domain's watch fired")
	}
}

func TestStoreDeadDomainOps(t *testing.T) {
	r, st := storeRig(t)
	r.h.DestroyDomain(r.domU.ID)
	if err := st.Write(r.domU.ID, homePrefix(r.domU.ID)+"x", "y"); !errors.Is(err, ErrDomainDead) {
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
