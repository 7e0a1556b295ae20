package vmmos

import (
	"bytes"
	"errors"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

func kvVRig(t *testing.T) (*vmm.Hypervisor, *KVAppliance, *KVClient) {
	t.Helper()
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 1024})
	h, _, err := vmm.New(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	appDom, err := h.CreateDomain("kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	app := NewKVAppliance(h, appDom)
	clDom, err := h.CreateDomain("client", 64)
	if err != nil {
		t.Fatal(err)
	}
	cgk := NewGuestKernel(h, clDom)
	cl, err := app.Connect(cgk)
	if err != nil {
		t.Fatal(err)
	}
	return h, app, cl
}

func TestKVAppliancePutGetDelete(t *testing.T) {
	h, _, cl := kvVRig(t)
	snap := h.M.Rec.Snapshot()
	if err := cl.Put("alpha", []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get("alpha")
	if err != nil || !ok || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("get = %q, %v, %v", v, ok, err)
	}
	if err := cl.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.Get("alpha"); ok {
		t.Fatal("deleted key found")
	}
	// The appliance maps the client's granted page once per request.
	if maps := h.M.Rec.CountsSince(snap, trace.KGrantMap); maps != 4 {
		t.Fatalf("KGrantMap = %d for 4 requests", maps)
	}
}

func TestKVApplianceMissingKey(t *testing.T) {
	_, _, cl := kvVRig(t)
	if _, ok, err := cl.Get("ghost"); ok || err != nil {
		t.Fatalf("missing-key get = %v, %v", ok, err)
	}
}

func TestKVApplianceMultipleClients(t *testing.T) {
	h, app, cl1 := kvVRig(t)
	d2, err := h.CreateDomain("client2", 64)
	if err != nil {
		t.Fatal(err)
	}
	gk2 := NewGuestKernel(h, d2)
	cl2, err := app.Connect(gk2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl1.Put("shared", []byte("from-1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl2.Get("shared")
	if err != nil || !ok || string(v) != "from-1" {
		t.Fatalf("cross-client get = %q, %v, %v", v, ok, err)
	}
}

func TestKVApplianceDeathConfined(t *testing.T) {
	h, app, cl := kvVRig(t)
	h.DestroyDomain(app.Dom.ID)
	if err := cl.Put("x", nil); !errors.Is(err, ErrBackendDead) {
		t.Fatalf("err = %v, want ErrBackendDead", err)
	}
	if !h.Alive(cl.gk.Dom.ID) {
		t.Fatal("client domain died with the appliance")
	}
}

func TestKVApplianceUsesGrantAndEventMachinery(t *testing.T) {
	// The point of E10: even this trivial service cannot avoid the grant
	// and channel machinery on the VMM.
	h, _, cl := kvVRig(t)
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	rec := h.M.Rec
	if rec.Counts(trace.KGrantMap) == 0 {
		t.Fatal("appliance served without grant maps?")
	}
	if rec.Counts(trace.KEvtchnSend) == 0 {
		t.Fatal("appliance served without event channels?")
	}
}

// TestKVApplianceRequestFillsOnePage: a value that fills the request page
// with its key and NUL round-trips byte-exact; one byte more is refused
// with ErrKVTooLong before anything is staged or granted, so it costs no
// cycle, and the key keeps its value. mkos.KVServer's stubs keep the same rule.
func TestKVApplianceRequestFillsOnePage(t *testing.T) {
	h, _, cl := kvVRig(t)
	const key = "k"
	full := make([]byte, int(h.M.Mem.PageSize())-len(key)-1)
	for i := range full {
		full[i] = byte(i*7 + 1)
	}
	if err := cl.Put(key, full); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get(key); err != nil || !ok || !bytes.Equal(v, full) {
		t.Fatalf("get of a %d-byte value: %d bytes, %v, %v; want it byte-exact", len(full), len(v), ok, err)
	}
	before := h.M.Now()
	if err := cl.Put(key, append(full, 0xEE)); !errors.Is(err, ErrKVTooLong) {
		t.Fatalf("put of a %d-byte value: err = %v, want ErrKVTooLong", len(full)+1, err)
	}
	if d := h.M.Now() - before; d != 0 {
		t.Fatalf("the refused put charged %d cycles", d)
	}
	if v, ok, err := cl.Get(key); err != nil || !ok || !bytes.Equal(v, full) {
		t.Fatalf("get after the refused put: %d bytes, %v, %v; want the previous value", len(v), ok, err)
	}
}
