package mk

import (
	"bytes"
	"fmt"
	"testing"

	"vmmk/internal/hw"
)

// TestHandlerMessageSurvivesReentry pins why requests live in per-level
// registers, not per-thread ones: a handler whose nested Call re-enters
// its own thread must still read its own message afterwards.
func TestHandlerMessageSurvivesReentry(t *testing.T) {
	r := newRig(t, hw.X86())
	sp, err := r.k.NewSpace("pingpong", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(depth uint64) []byte { return []byte(fmt.Sprintf("depth-%d", depth)) }
	var ping, pong *Thread
	var bad []string
	ping = r.k.NewThread(sp, "ping", 5, func(k *Kernel, _ ThreadID, msg Msg) (Msg, error) {
		depth := msg.Words[0]
		if depth > 0 {
			// pong forwards this straight back to ping, one level deeper.
			next := Msg{Words: []uint64{depth - 1, ^(depth - 1)}, Data: payload(depth - 1)}
			if _, err := k.Call(ping.ID, pong.ID, next); err != nil {
				return Msg{}, err
			}
		}
		if len(msg.Words) != 2 || msg.Words[0] != depth || msg.Words[1] != ^depth ||
			!bytes.Equal(msg.Data, payload(depth)) {
			bad = append(bad, fmt.Sprintf("depth %d reads words %v data %q", depth, msg.Words, msg.Data))
		}
		return Msg{Words: []uint64{depth}}, nil
	})
	pong = r.k.NewThread(sp, "pong", 5, func(k *Kernel, _ ThreadID, msg Msg) (Msg, error) {
		return k.Call(pong.ID, ping.ID, msg)
	})
	const depth = 3
	reply, err := r.k.Call(r.client.ID, ping.ID, Msg{Words: []uint64{depth, ^uint64(depth)}, Data: payload(depth)})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Words) != 1 || reply.Words[0] != depth {
		t.Fatalf("reply words %v, want [%d]", reply.Words, depth)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// TestRepliesArePerThread pins why replies live in per-thread registers,
// not per-level ones: two clients' replies are both intact when read after
// both calls.
func TestRepliesArePerThread(t *testing.T) {
	r := newRig(t, hw.X86())
	cs, err := r.k.NewSpace("client2", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	other := r.k.NewThread(cs, "client2", 1, nil)
	r1, err := r.k.Call(r.client.ID, r.server.ID, Msg{Words: []uint64{1}, Data: []byte("first")})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.k.Call(other.ID, r.server.ID, Msg{Words: []uint64{2}, Data: []byte("second")})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Words[0] != 1 || string(r1.Data) != "first" {
		t.Errorf("first client's reply became %v %q", r1.Words, r1.Data)
	}
	if r2.Words[0] != 2 || string(r2.Data) != "second" {
		t.Errorf("second client's reply became %v %q", r2.Words, r2.Data)
	}
}

// TestRegisterViewsAreCapped: a handler appending to its message and a
// client appending to its reply get fresh memory, so what they built
// survives the next IPC instead of living in register capacity.
func TestRegisterViewsAreCapped(t *testing.T) {
	r := newRig(t, hw.X86())
	var kept []byte
	ss, err := r.k.NewSpace("keep", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	keeper := r.k.NewThread(ss, "keep", 1, func(k *Kernel, _ ThreadID, msg Msg) (Msg, error) {
		if string(msg.Data) == "ab" {
			kept = append(msg.Data, '!')
		}
		return Msg{Words: msg.Words}, nil
	})
	call := func(words []uint64, data string) Msg {
		t.Helper()
		reply, err := r.k.Call(r.client.ID, keeper.ID, Msg{Words: words, Data: []byte(data)})
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	call([]uint64{9, 9, 9, 9, 9, 9}, "a long first message") // grow the registers
	grown := append(call([]uint64{1}, "ab").Words, 2)
	call([]uint64{7, 7, 7, 7}, "XYZW")
	if string(kept) != "ab!" {
		t.Errorf("handler's appended message became %q, want \"ab!\"", kept)
	}
	if fmt.Sprint(grown) != "[1 2]" {
		t.Errorf("client's appended reply became %v, want [1 2]", grown)
	}
}

// TestWarmIPCAllocatesNothing: once the registers have grown, a Call and a
// Send carrying register words and an io-sized string item allocate
// nothing.
func TestWarmIPCAllocatesNothing(t *testing.T) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 256})
	k := New(m)
	cs, err := k.NewSpace("c", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := k.NewSpace("s", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	cl := k.NewThread(cs, "c", 1, nil)
	echo := k.NewThread(ss, "s", 2, func(k *Kernel, _ ThreadID, msg Msg) (Msg, error) {
		return msg, nil
	})
	msg := Msg{Label: 1, Words: []uint64{1, 2, 3}, Data: make([]byte, 1500)}
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"call", func() error { _, err := k.Call(cl.ID, echo.ID, msg); return err }},
		{"send", func() error { return k.Send(cl.ID, echo.ID, msg) }},
	} {
		if err := tc.op(); err != nil {
			t.Fatal(err)
		}
		var opErr error
		n := testing.AllocsPerRun(100, func() {
			if err := tc.op(); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatal(opErr)
		}
		if n != 0 {
			t.Errorf("warm %s allocates %.1f times", tc.name, n)
		}
	}
}
