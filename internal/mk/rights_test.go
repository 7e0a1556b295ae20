package mk

import (
	"errors"
	"testing"

	"vmmk/internal/hw"
)

func TestDefaultIsAllowAll(t *testing.T) {
	r := newRig(t, hw.X86())
	if _, err := r.k.Call(r.client.ID, r.server.ID, Msg{}); err != nil {
		t.Fatal(err)
	}
}

func TestRestrictedSenderBlocked(t *testing.T) {
	r := newRig(t, hw.X86())
	if err := r.k.RestrictIPC(r.client.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.k.Call(r.client.ID, r.server.ID, Msg{}); !errors.Is(err, ErrIPCDenied) {
		t.Fatalf("err = %v, want ErrIPCDenied", err)
	}
	// Send is enforced through the same preamble.
	if err := r.k.Send(r.client.ID, r.server.ID, Msg{}); !errors.Is(err, ErrIPCDenied) {
		t.Fatalf("send err = %v, want ErrIPCDenied", err)
	}
}

func TestAllowThenRevoke(t *testing.T) {
	r := newRig(t, hw.X86())
	r.k.RestrictIPC(r.client.ID)
	if err := r.k.AllowIPC(r.client.ID, r.server.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.k.Call(r.client.ID, r.server.ID, Msg{}); err != nil {
		t.Fatalf("whitelisted call failed: %v", err)
	}
	r.k.RevokeIPC(r.client.ID, r.server.ID)
	if _, err := r.k.Call(r.client.ID, r.server.ID, Msg{}); !errors.Is(err, ErrIPCDenied) {
		t.Fatalf("err after revoke = %v, want ErrIPCDenied", err)
	}
}

func TestUnrestrictRestoresAllowAll(t *testing.T) {
	r := newRig(t, hw.X86())
	r.k.RestrictIPC(r.client.ID)
	r.k.UnrestrictIPC(r.client.ID)
	if _, err := r.k.Call(r.client.ID, r.server.ID, Msg{}); err != nil {
		t.Fatal(err)
	}
}

func TestRestrictionIsPerSender(t *testing.T) {
	r := newRig(t, hw.X86())
	ss, err := r.k.NewSpace("sink", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	sink := r.k.NewThread(ss, "sink", 1, func(*Kernel, ThreadID, Msg) (Msg, error) { return Msg{}, nil })
	// Restricting the client must not affect the server's own sends.
	r.k.RestrictIPC(r.client.ID)
	if err := r.k.Send(r.server.ID, sink.ID, Msg{Label: 9}); err != nil {
		t.Fatalf("unrestricted sender blocked: %v", err)
	}
}

func TestRightsOnMissingThreads(t *testing.T) {
	r := newRig(t, hw.X86())
	if err := r.k.RestrictIPC(999); !errors.Is(err, ErrNoSuchThread) {
		t.Fatal("restrict on missing thread accepted")
	}
	if err := r.k.AllowIPC(r.client.ID, 999); !errors.Is(err, ErrNoSuchThread) {
		t.Fatal("allow on missing receiver accepted")
	}
}

func TestDeniedIPCChargesValidationOnly(t *testing.T) {
	// A denied IPC must cost the kernel entry + check, not a transfer:
	// the denial happens before any copy or switch.
	r := newRig(t, hw.X86())
	r.k.RestrictIPC(r.client.ID)
	t0 := r.m.Now()
	r.k.Call(r.client.ID, r.server.ID, Msg{Data: make([]byte, 65536)})
	denied := r.m.Now() - t0

	r.k.UnrestrictIPC(r.client.ID)
	t1 := r.m.Now()
	r.k.Call(r.client.ID, r.server.ID, Msg{Data: make([]byte, 65536)})
	allowed := r.m.Now() - t1
	if denied >= allowed/4 {
		t.Fatalf("denied IPC cost %d, allowed %d — denial must be early", denied, allowed)
	}
}
