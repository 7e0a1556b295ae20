package scenario

import (
	"fmt"
	"sync"

	"vmmk/internal/hw"
	"vmmk/internal/mk"
)

// mk rows: microkernel IPC and fault-protocol failures. The recurring
// isolation property: one dead or misbehaving thread hurts only its IPC
// partners — the kernel and unrelated threads keep working, which every
// row's post-mortem check probes.

// mkState carries the kernel and the interesting thread ids to Check.
type mkState struct {
	k       *mk.Kernel
	client  mk.ThreadID
	victim  mk.ThreadID
	resumed bool
}

// mkEcho is the trivial server handler: reply with the request.
func mkEcho(_ *mk.Kernel, _ mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
	return msg, nil
}

// oversizedPayload is the armed leg of mk/ipc-oversized-payload: one byte
// over the 1 MiB string-transfer limit. The kernel rejects it by its length
// without reading a byte, so every leg shares one read-only copy.
var oversizedPayload = sync.OnceValue(func() []byte { return make([]byte, 1<<20+1) })

// mkKernelStillWorks probes that the kernel survived the row's fault: a
// fresh space, thread and IPC round trip must all succeed.
func mkKernelStillWorks(k *mk.Kernel) error {
	sp, err := k.NewSpace("probe", mk.NilThread)
	if err != nil {
		return fmt.Errorf("post-fault NewSpace: %w", err)
	}
	srv := k.NewThread(sp, "probe-srv", 5, mkEcho)
	cl := k.NewThread(sp, "probe-cl", 5, nil)
	reply, err := k.Call(cl.ID, srv.ID, mk.Msg{Words: []uint64{42}})
	if err != nil {
		return fmt.Errorf("post-fault IPC: %w", err)
	}
	if len(reply.Words) != 1 || reply.Words[0] != 42 {
		return fmt.Errorf("post-fault IPC reply %v", reply.Words)
	}
	return nil
}

// mkRows is the mk layer's share of the matrix.
var mkRows = []S{
	{
		ID:        "mk/ipc-dead-partner",
		Subsystem: "mk",
		Fault:     "server thread killed before the client's call",
		Expect: Outcome{
			Desc: "ErrDeadPartner; client and kernel unharmed",
			Err:  mk.ErrDeadPartner,
			Check: func(env *Env) error {
				st := env.State.(*mkState)
				if !st.k.Alive(st.client) {
					return fmt.Errorf("client died with its partner")
				}
				return mkKernelStillWorks(st.k)
			},
		},
		Run: func(env *Env) error {
			k := mk.New(env.M)
			sp, err := k.NewSpace("srv", mk.NilThread)
			if err != nil {
				return err
			}
			srv := k.NewThread(sp, "server", 5, mkEcho)
			cl := k.NewThread(sp, "client", 5, nil)
			env.State = &mkState{k: k, client: cl.ID}
			if env.Armed {
				k.KillThread(srv.ID)
			}
			reply, err := k.Call(cl.ID, srv.ID, mk.Msg{Words: []uint64{7}})
			if err != nil {
				return err
			}
			if len(reply.Words) != 1 || reply.Words[0] != 7 {
				return fmt.Errorf("echo reply %v", reply.Words)
			}
			return nil
		},
	},

	{
		ID:        "mk/ipc-oversized-payload",
		Subsystem: "mk",
		Fault:     "string transfer one byte over the 1 MiB IPC limit",
		Expect: Outcome{
			Desc: "ErrMsgTooLarge; partner still reachable afterwards",
			Err:  mk.ErrMsgTooLarge,
			Check: func(env *Env) error {
				st := env.State.(*mkState)
				if _, err := st.k.Call(st.client, st.victim, mk.Msg{Words: []uint64{1}}); err != nil {
					return fmt.Errorf("partner unreachable after oversized send: %w", err)
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			k := mk.New(env.M)
			sp, err := k.NewSpace("srv", mk.NilThread)
			if err != nil {
				return err
			}
			srv := k.NewThread(sp, "server", 5, mkEcho)
			cl := k.NewThread(sp, "client", 5, nil)
			env.State = &mkState{k: k, client: cl.ID, victim: srv.ID}
			var payload []byte
			if env.Armed {
				payload = oversizedPayload()
			} else {
				payload = make([]byte, 1024)
			}
			_, err = k.Call(cl.ID, srv.ID, mk.Msg{Data: payload})
			return err
		},
	},

	{
		ID:        "mk/call-chain-overflow",
		Subsystem: "mk",
		Fault:     "two servers forward a call back and forth 40 levels deep",
		Expect: Outcome{
			Desc: "ErrCallDepth surfaces at the initiator; kernel unwinds cleanly",
			Check: func(env *Env) error {
				return mkKernelStillWorks(env.State.(*mkState).k)
			},
			Err: mk.ErrCallDepth,
		},
		Run: func(env *Env) error {
			k := mk.New(env.M)
			sp, err := k.NewSpace("pingpong", mk.NilThread)
			if err != nil {
				return err
			}
			var ta, tb *mk.Thread
			forward := func(self, partner **mk.Thread) mk.Handler {
				return func(k *mk.Kernel, _ mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
					depth := msg.Words[0]
					if depth == 0 {
						return mk.Msg{Words: []uint64{0}}, nil
					}
					return k.Call((*self).ID, (*partner).ID, mk.Msg{Words: []uint64{depth - 1}})
				}
			}
			ta = k.NewThread(sp, "ping", 5, forward(&ta, &tb))
			tb = k.NewThread(sp, "pong", 5, forward(&tb, &ta))
			cl := k.NewThread(sp, "client", 5, nil)
			env.State = &mkState{k: k, client: cl.ID}
			depth := uint64(4)
			if env.Armed {
				depth = 40
			}
			_, err = k.Call(cl.ID, ta.ID, mk.Msg{Words: []uint64{depth}})
			return err
		},
	},

	{
		ID:        "mk/page-fault-pager-dead",
		Subsystem: "mk",
		Fault:     "external pager killed before its client faults",
		Expect: Outcome{
			Desc: "ErrNoPager; the faulting thread survives, only its fault is lost",
			Err:  mk.ErrNoPager,
			Check: func(env *Env) error {
				st := env.State.(*mkState)
				if !st.k.Alive(st.victim) {
					return fmt.Errorf("faulting thread was killed; a missing pager must not be fatal")
				}
				return mkKernelStillWorks(st.k)
			},
		},
		Run: func(env *Env) error {
			k := mk.New(env.M)
			pgSp, err := k.NewSpace("pager", mk.NilThread)
			if err != nil {
				return err
			}
			window := hw.VPN(0x9000)
			pager := k.NewThread(pgSp, "pager", 5,
				func(k *mk.Kernel, _ mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
					vpn := hw.VPN(msg.Words[0])
					f, err := k.M.Mem.Alloc(pgSp.Comp())
					if err != nil {
						return mk.Msg{}, err
					}
					k.MapPage(pgSp, window, f, hw.PermRW)
					item := mk.MapItem{SrcVPN: window, DstVPN: vpn, Count: 1, Perms: hw.PermRW}
					window++
					return mk.Msg{Label: mk.LabelPageFaultReply, Map: []mk.MapItem{item}}, nil
				})
			taskSp, err := k.NewSpace("task", pager.ID)
			if err != nil {
				return err
			}
			task := k.NewThread(taskSp, "task", 5, nil)
			env.State = &mkState{k: k, victim: task.ID}
			if env.Armed {
				k.KillThread(pager.ID)
			}
			pte, err := k.Touch(task.ID, 0x100, hw.PermR)
			if err != nil {
				return err
			}
			if pte.Frame == hw.NoFrame {
				return fmt.Errorf("pager resolved fault to no frame")
			}
			return nil
		},
	},

	{
		ID:        "mk/map-rights-amplification",
		Subsystem: "mk",
		Fault:     "map item tries to delegate read-write from a read-only mapping",
		Expect: Outcome{
			Desc: "ErrPermDenied; delegated rights can only narrow",
			Err:  mk.ErrPermDenied,
		},
		Run: func(env *Env) error {
			k := mk.New(env.M)
			sa, err := k.NewSpace("sender", mk.NilThread)
			if err != nil {
				return err
			}
			sb, err := k.NewSpace("receiver", mk.NilThread)
			if err != nil {
				return err
			}
			ta := k.NewThread(sa, "sender", 5, nil)
			// Reply must not echo the map items back: the receiver does
			// not hold 0x10, so an echoed item would fail the reply leg.
			tb := k.NewThread(sb, "receiver", 5,
				func(_ *mk.Kernel, _ mk.ThreadID, _ mk.Msg) (mk.Msg, error) {
					return mk.Msg{Words: []uint64{0}}, nil
				})
			f, err := k.M.Mem.Alloc(sa.Comp())
			if err != nil {
				return err
			}
			k.MapPage(sa, 0x10, f, hw.PermR)
			perms := hw.PermR
			if env.Armed {
				perms = hw.PermRW // amplification attempt
			}
			_, err = k.Call(ta.ID, tb.ID, mk.Msg{
				Map: []mk.MapItem{{SrcVPN: 0x10, DstVPN: 0x20, Count: 1, Perms: perms}},
			})
			if err != nil {
				return err
			}
			if e, ok := sb.PT.Lookup(0x20); !ok || e.Frame != f {
				return fmt.Errorf("legitimate map item not applied")
			}
			return nil
		},
	},

	{
		ID:        "mk/exception-unhandled",
		Subsystem: "mk",
		Fault:     "thread raises an exception with no exception handler registered",
		Expect: Outcome{
			Desc: "faulting thread is killed, nothing else is; with a handler it resumes",
			Check: func(env *Env) error {
				st := env.State.(*mkState)
				alive := st.k.Alive(st.victim)
				if env.Armed {
					if st.resumed || alive {
						return fmt.Errorf("unhandled exception: resumed=%v alive=%v, want thread killed", st.resumed, alive)
					}
				} else if !st.resumed || !alive {
					return fmt.Errorf("handled exception: resumed=%v alive=%v, want resumed", st.resumed, alive)
				}
				return mkKernelStillWorks(st.k)
			},
		},
		Run: func(env *Env) error {
			k := mk.New(env.M)
			sp, err := k.NewSpace("task", mk.NilThread)
			if err != nil {
				return err
			}
			victim := k.NewThread(sp, "victim", 5, nil)
			if !env.Armed {
				hsp, err := k.NewSpace("exc", mk.NilThread)
				if err != nil {
					return err
				}
				eh := k.NewThread(hsp, "handler", 5,
					func(_ *mk.Kernel, _ mk.ThreadID, _ mk.Msg) (mk.Msg, error) {
						return mk.Msg{Words: []uint64{1}}, nil // resume
					})
				if err := k.SetExceptionHandler(sp, eh.ID); err != nil {
					return err
				}
			}
			resumed, err := k.RaiseException(victim.ID, 13)
			if err != nil {
				return err
			}
			env.State = &mkState{k: k, victim: victim.ID, resumed: resumed}
			return nil
		},
	},
}
