package scenario

import (
	"bytes"
	"fmt"

	"vmmk/internal/guestos"
	"vmmk/internal/hw/dev"
	"vmmk/internal/mk"
	"vmmk/internal/mkos"
)

// mkos rows: the user-level OS personality on the microkernel. The driver
// runs as an ordinary thread, so its failures are IPC failures — and its
// request validation (partition bounds, grants, well-formedness) is the
// user-level twin of the hypervisor's monitor checks.

// mkosState carries the kernel, driver and client to Check.
type mkosState struct {
	k      *mk.Kernel
	drv    *mkos.BlkDriver
	client mk.ThreadID
}

// mkosBlkRig builds kernel + disk + block driver + a client thread.
func mkosBlkRig(env *Env) (*mkosState, error) {
	k := mk.New(env.M)
	disk := dev.NewDisk(env.M, dev.DiskConfig{Blocks: 512, Latency: 2000})
	drv, err := mkos.NewBlkDriver(k, disk)
	if err != nil {
		return nil, err
	}
	sp, err := k.NewSpace("client", mk.NilThread)
	if err != nil {
		return nil, err
	}
	cl := k.NewThread(sp, "client", 5, nil)
	return &mkosState{k: k, drv: drv, client: cl.ID}, nil
}

// mkosRows is the mkos layer's share of the matrix.
var mkosRows = []S{
	{
		ID:        "mkos/blk-read-beyond-partition",
		Subsystem: "mkos",
		Fault:     "block read at offset 100 of a 64-block partition (disk itself is larger)",
		Expect: Outcome{
			Desc: "ErrBadRequest; partition isolation holds inside the disk",
			Err:  mkos.ErrBadRequest,
		},
		Run: func(env *Env) error {
			st, err := mkosBlkRig(env)
			if err != nil {
				return err
			}
			st.drv.GrantPartition(st.client, 64)
			bc := st.drv.NewBlkClient(st.client, 64)
			payload := []byte("partition block five")
			if err := bc.Write(5, payload); err != nil {
				return err
			}
			block := uint64(5)
			if env.Armed {
				block = 100 // beyond the partition, within the disk
			}
			got, err := bc.Read(block)
			if err != nil {
				return err
			}
			if !bytes.Equal(got[:len(payload)], payload) {
				return fmt.Errorf("read back %q", got[:len(payload)])
			}
			return nil
		},
	},

	{
		ID:        "mkos/blk-request-without-partition",
		Subsystem: "mkos",
		Fault:     "block request from a thread that was never granted a partition",
		Expect: Outcome{
			Desc: "ErrNoBlock",
			Err:  mkos.ErrNoBlock,
		},
		Run: func(env *Env) error {
			st, err := mkosBlkRig(env)
			if err != nil {
				return err
			}
			st.drv.GrantPartition(st.client, 64)
			sp, err := st.k.NewSpace("intruder", mk.NilThread)
			if err != nil {
				return err
			}
			intruder := st.k.NewThread(sp, "intruder", 5, nil)
			caller := st.client
			if env.Armed {
				caller = intruder.ID
			}
			_, err = st.k.Call(caller, st.drv.Thread.ID,
				mk.Msg{Label: mkos.LabelBlkRead, Words: []uint64{1}})
			return err
		},
	},

	{
		ID:        "mkos/blk-driver-killed-mid-service",
		Subsystem: "mkos",
		Fault:     "disk driver thread killed between client requests",
		Expect: Outcome{
			Desc: "ErrDeadPartner; client and kernel unharmed",
			Err:  mk.ErrDeadPartner,
			Check: func(env *Env) error {
				st := env.State.(*mkosState)
				if !st.k.Alive(st.client) {
					return fmt.Errorf("client died with the driver")
				}
				return mkKernelStillWorks(st.k)
			},
		},
		Run: func(env *Env) error {
			st, err := mkosBlkRig(env)
			if err != nil {
				return err
			}
			env.State = st
			st.drv.GrantPartition(st.client, 64)
			bc := st.drv.NewBlkClient(st.client, 64)
			if err := bc.Write(3, []byte("before the crash")); err != nil {
				return err
			}
			if env.Armed {
				st.k.KillThread(st.drv.Thread.ID)
			}
			_, err = bc.Read(3)
			return err
		},
	},

	{
		ID:        "mkos/blk-malformed-request",
		Subsystem: "mkos",
		Fault:     "block request IPC with no block number word",
		Expect: Outcome{
			Desc: "ErrBadRequest; driver rejects and keeps serving",
			Err:  mkos.ErrBadRequest,
			Check: func(env *Env) error {
				st := env.State.(*mkosState)
				if _, err := st.k.Call(st.client, st.drv.Thread.ID,
					mk.Msg{Label: mkos.LabelBlkRead, Words: []uint64{2}}); err != nil {
					return fmt.Errorf("driver wedged after malformed request: %w", err)
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			st, err := mkosBlkRig(env)
			if err != nil {
				return err
			}
			env.State = st
			st.drv.GrantPartition(st.client, 64)
			words := []uint64{1}
			if env.Armed {
				words = nil // no block number
			}
			_, err = st.k.Call(st.client, st.drv.Thread.ID,
				mk.Msg{Label: mkos.LabelBlkRead, Words: words})
			return err
		},
	},

	{
		ID:        "mkos/syscall-unknown-process",
		Subsystem: "mkos",
		Fault:     "syscall issued with a PID the OS server never spawned",
		Expect: Outcome{
			Desc: "ErrNoSuchProcess",
			Err:  guestos.ErrNoSuchProcess,
		},
		Run: func(env *Env) error {
			k := mk.New(env.M)
			srv, err := mkos.NewOSServer(k, "linux")
			if err != nil {
				return err
			}
			p, err := srv.Spawn("init")
			if err != nil {
				return err
			}
			pid := p.PID
			if env.Armed {
				pid = guestos.PID(999)
			}
			ret, err := srv.Syscall(pid, guestos.SysGetPID)
			if err != nil {
				return err
			}
			if len(ret) != 1 || ret[0] != uint64(p.PID) {
				return fmt.Errorf("getpid returned %v", ret)
			}
			return nil
		},
	},
}
