package mk

import (
	"errors"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/trace"
)

// excRig: a user thread whose space has an exception-handler server.
type excRig struct {
	m       *hw.Machine
	k       *Kernel
	user    *Thread
	handler *Thread
	seen    []int
	verdict uint64 // what the handler replies: 1 resume, 0 kill
}

func newExcRig(t *testing.T) *excRig {
	t.Helper()
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 128})
	k := New(m)
	r := &excRig{m: m, k: k, verdict: 1}
	hs, err := k.NewSpace("excsrv", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	r.handler = k.NewThread(hs, "excsrv", 5, func(k *Kernel, from ThreadID, msg Msg) (Msg, error) {
		if msg.Label == LabelException {
			r.seen = append(r.seen, int(msg.Words[0]))
		}
		k.M.CPU.Work(k.M.Rec.Intern("mk.excsrv"), 150)
		return Msg{Words: []uint64{r.verdict}}, nil
	})
	us, err := k.NewSpace("user", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetExceptionHandler(us, r.handler.ID); err != nil {
		t.Fatal(err)
	}
	r.user = k.NewThread(us, "user", 1, nil)
	return r
}

func TestExceptionForwardedAsIPC(t *testing.T) {
	r := newExcRig(t)
	resumed, err := r.k.RaiseException(r.user.ID, 6) // illegal instruction
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("handled exception must resume the thread")
	}
	if len(r.seen) != 1 || r.seen[0] != 6 {
		t.Fatalf("handler saw %v", r.seen)
	}
	if got := r.m.Rec.Counts(trace.KIPCSend); got != 1 {
		t.Fatalf("KIPCSend = %d, want 1 (the exception IPC)", got)
	}
	if !r.k.Alive(r.user.ID) {
		t.Fatal("resumed thread is dead")
	}
	if r.m.Rec.Cycles("mk.excsrv") == 0 {
		t.Fatal("handler work not attributed")
	}
}

func TestExceptionHandlerKillsThread(t *testing.T) {
	r := newExcRig(t)
	r.verdict = 0 // handler declines to resume
	resumed, err := r.k.RaiseException(r.user.ID, 13)
	if err != nil {
		t.Fatal(err)
	}
	if resumed || r.k.Alive(r.user.ID) {
		t.Fatal("declined exception must kill the faulter")
	}
	// The handler itself is fine.
	if !r.k.Alive(r.handler.ID) {
		t.Fatal("handler harmed")
	}
}

func TestExceptionWithoutHandlerIsFatal(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	s, _ := k.NewSpace("bare", NilThread)
	u := k.NewThread(s, "bare", 1, nil)
	resumed, err := k.RaiseException(u.ID, 0)
	if err != nil || resumed {
		t.Fatalf("unhandled exception: resumed=%v err=%v", resumed, err)
	}
	if k.Alive(u.ID) {
		t.Fatal("thread survived unhandled exception")
	}
}

func TestExceptionHandlerDeathConfinesToClients(t *testing.T) {
	r := newExcRig(t)
	r.k.KillThread(r.handler.ID)
	resumed, err := r.k.RaiseException(r.user.ID, 6)
	if err != nil || resumed {
		t.Fatal("exception with dead handler should be fatal to the faulter")
	}
	if r.k.Alive(r.user.ID) {
		t.Fatal("faulter survived with dead handler")
	}
}

func TestSetExceptionHandlerValidation(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	s, _ := k.NewSpace("s", NilThread)
	if err := k.SetExceptionHandler(s, 999); !errors.Is(err, ErrNoSuchThread) {
		t.Fatalf("err = %v, want ErrNoSuchThread", err)
	}
	if err := k.SetExceptionHandler(s, NilThread); err != nil {
		t.Fatal("clearing the handler must be allowed")
	}
}

func TestExceptionOnMissingThread(t *testing.T) {
	m := hw.NewMachine(hw.X86(), nil)
	k := New(m)
	if _, err := k.RaiseException(42, 1); !errors.Is(err, ErrNoSuchThread) {
		t.Fatalf("err = %v, want ErrNoSuchThread", err)
	}
}
