package mkos

import (
	"bytes"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/mk"
	"vmmk/internal/trace"
)

func kvRig(t *testing.T) (*mk.Kernel, *KVServer, *mk.Thread) {
	t.Helper()
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 256})
	k := mk.New(m)
	kv, err := NewKVServer(k)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := k.NewSpace("client", mk.NilThread)
	if err != nil {
		t.Fatal(err)
	}
	client := k.NewThread(cs, "client", 1, nil)
	return k, kv, client
}

func TestKVPutGetDelete(t *testing.T) {
	k, kv, cl := kvRig(t)
	snap := k.M.Rec.Snapshot()
	if err := kv.Put(cl.ID, "alpha", []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := kv.Get(cl.ID, "alpha")
	if err != nil || !ok || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("get = %q, %v, %v", v, ok, err)
	}
	if err := kv.Delete(cl.ID, "alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := kv.Get(cl.ID, "alpha"); ok {
		t.Fatal("deleted key found")
	}
	// The extension's whole interface is IPC: one call per request.
	if calls := k.M.Rec.CountsSince(snap, trace.KIPCCall); calls != 4 {
		t.Fatalf("KIPCCall = %d for 4 requests", calls)
	}
}

func TestKVMissingKey(t *testing.T) {
	_, kv, cl := kvRig(t)
	v, ok, err := kv.Get(cl.ID, "ghost")
	if err != nil || ok || v != nil {
		t.Fatalf("missing-key get = %q, %v, %v", v, ok, err)
	}
}

func TestKVOverwrite(t *testing.T) {
	_, kv, cl := kvRig(t)
	kv.Put(cl.ID, "k", []byte("v1"))
	kv.Put(cl.ID, "k", []byte("v2"))
	v, ok, _ := kv.Get(cl.ID, "k")
	if !ok || string(v) != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}
}

func TestKVValueWithNULBytes(t *testing.T) {
	// The wire format NUL-separates key and value; values may contain
	// NULs (only the first separates).
	_, kv, cl := kvRig(t)
	val := []byte("a\x00b\x00c")
	kv.Put(cl.ID, "bin", val)
	v, ok, _ := kv.Get(cl.ID, "bin")
	if !ok || !bytes.Equal(v, val) {
		t.Fatalf("binary value mangled: %q", v)
	}
}

func TestKVServerDeathConfined(t *testing.T) {
	k, kv, cl := kvRig(t)
	k.KillThread(kv.Thread.ID)
	if err := kv.Put(cl.ID, "x", nil); err == nil {
		t.Fatal("put to dead server succeeded")
	}
	if !k.Alive(cl.ID) {
		t.Fatal("client died with the extension")
	}
}
