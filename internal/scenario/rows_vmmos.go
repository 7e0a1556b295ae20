package scenario

import (
	"bytes"
	"fmt"

	"vmmk/internal/guestos"
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/vmm"
	"vmmk/internal/vmmos"
)

// vmmos rows: the split-driver guest stack. The paper's liability question
// in executable form — when the backend (dom0) dies or a frontend is
// missing, the guest must get a typed error, not a hang or a corpse.

// vmmosConfig is the machine shape for the full split-driver stack.
var vmmosConfig = &hw.MachineConfig{Frames: 2048}

// vmmosState carries the stack under test to Check.
type vmmosState struct {
	h    *vmm.Hypervisor
	domU vmm.DomID
	ret  []uint64
}

// vmmosRig builds hypervisor + driver domain (NIC and disk backends) + one
// guest with its paravirtual kernel.
func vmmosRig(env *Env) (*vmm.Hypervisor, *vmmos.DriverDomain, *vmmos.GuestKernel, error) {
	h, d0, err := vmm.New(env.M, 128)
	if err != nil {
		return nil, nil, nil, err
	}
	nic := dev.NewNIC(env.M, dev.NICConfig{RingSize: 64})
	disk := dev.NewDisk(env.M, dev.DiskConfig{Latency: 5000})
	dd, err := vmmos.NewDriverDomain(h, d0, nic, disk)
	if err != nil {
		return nil, nil, nil, err
	}
	dU, err := h.CreateDomain("domU1", 128)
	if err != nil {
		return nil, nil, nil, err
	}
	gk := vmmos.NewGuestKernel(h, dU)
	return h, dd, gk, nil
}

// vmmosRows is the vmmos layer's share of the matrix.
var vmmosRows = []S{
	{
		ID:        "vmmos/blk-backend-destroyed",
		Subsystem: "vmmos",
		Fault:     "dom0 destroyed while the guest's block frontend is connected",
		Cfg:       vmmosConfig,
		Expect: Outcome{
			Desc: "ErrBackendDead; the guest domain itself survives",
			Err:  vmmos.ErrBackendDead,
			Check: func(env *Env) error {
				st := env.State.(*vmmosState)
				if !st.h.Alive(st.domU) {
					return fmt.Errorf("guest died with its backend")
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			h, dd, gk, err := vmmosRig(env)
			if err != nil {
				return err
			}
			env.State = &vmmosState{h: h, domU: gk.Dom.ID}
			bf, err := vmmos.ConnectBlk(dd, gk, 256)
			if err != nil {
				return err
			}
			payload := []byte("guest block three")
			if err := bf.Write(3, payload); err != nil {
				return err
			}
			if env.Armed {
				if err := h.DestroyDomain(dd.GK.Dom.ID); err != nil {
					return err
				}
			}
			got, err := bf.Read(3)
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
		ID:        "vmmos/fs-without-block-frontend",
		Subsystem: "vmmos",
		Fault:     "guest mounts a filesystem with no block frontend connected",
		Cfg:       vmmosConfig,
		Expect: Outcome{
			Desc: "ErrNoBlock from MountFS",
			Err:  guestos.ErrNoBlock,
		},
		Run: func(env *Env) error {
			_, dd, gk, err := vmmosRig(env)
			if err != nil {
				return err
			}
			if !env.Armed {
				if _, err := vmmos.ConnectBlk(dd, gk, 256); err != nil {
					return err
				}
			}
			fs, err := gk.MountFS(64)
			if err != nil {
				return err
			}
			if err := fs.WriteFile("f", []byte("hello")); err != nil {
				return err
			}
			got, err := fs.ReadFile("f")
			if err != nil {
				return err
			}
			if !bytes.Equal(got, []byte("hello")) {
				return fmt.Errorf("read back %q", got)
			}
			return nil
		},
	},

	{
		ID:        "vmmos/syscall-unknown-process",
		Subsystem: "vmmos",
		Fault:     "guest syscall issued with a PID the guest kernel never spawned",
		Cfg:       vmmosConfig,
		Expect: Outcome{
			Desc: "ErrNoSuchProcess",
			Err:  guestos.ErrNoSuchProcess,
		},
		Run: func(env *Env) error {
			h, _, err := vmm.New(env.M, 128)
			if err != nil {
				return err
			}
			dU, err := h.CreateDomain("domU1", 128)
			if err != nil {
				return err
			}
			gk := vmmos.NewGuestKernel(h, dU)
			p := gk.Spawn("app")
			pid := p.PID
			if env.Armed {
				pid = guestos.PID(4242)
			}
			ret, err := gk.Syscall(pid, guestos.SysGetPID)
			if err != nil {
				return err
			}
			if len(ret) != 1 || ret[0] != uint64(p.PID) {
				return fmt.Errorf("getpid returned %v", ret)
			}
			return nil
		},
	},

	{
		ID:        "vmmos/net-send-without-frontend",
		Subsystem: "vmmos",
		Fault:     "guest process sends on the network with no net frontend connected",
		Cfg:       vmmosConfig,
		Expect: Outcome{
			Desc: "syscall returns the error sentinel ^0 instead of bytes sent",
			Check: func(env *Env) error {
				st := env.State.(*vmmosState)
				if len(st.ret) != 1 {
					return fmt.Errorf("syscall returned %v", st.ret)
				}
				if env.Armed {
					if st.ret[0] != guestos.Fail {
						return fmt.Errorf("send without frontend returned %d, want ^0", st.ret[0])
					}
				} else if st.ret[0] != 64 {
					return fmt.Errorf("send returned %d, want 64", st.ret[0])
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			h, dd, gk, err := vmmosRig(env)
			if err != nil {
				return err
			}
			if !env.Armed {
				if _, err := vmmos.ConnectNet(dd, gk); err != nil {
					return err
				}
			}
			p := gk.Spawn("app")
			ret, err := gk.Syscall(p.PID, guestos.SysNetSend, 64)
			if err != nil {
				return err
			}
			env.State = &vmmosState{h: h, domU: gk.Dom.ID, ret: ret}
			return nil
		},
	},

	{
		ID:        "vmmos/parallax-snapshot-unattached",
		Subsystem: "vmmos",
		Fault:     "snapshot requested for a domain with no attached virtual disk",
		Cfg:       vmmosConfig,
		Expect: Outcome{
			Desc: "ErrVDiskUnknown",
			Err:  vmmos.ErrVDiskUnknown,
		},
		Run: func(env *Env) error {
			h, dd, gk, err := vmmosRig(env)
			if err != nil {
				return err
			}
			pxDom, err := h.CreateDomain("parallax", 64)
			if err != nil {
				return err
			}
			px, err := vmmos.NewParallax(h, pxDom, dd, 128)
			if err != nil {
				return err
			}
			if !env.Armed {
				if _, err := px.AttachClient(gk, 64); err != nil {
					return err
				}
			}
			_, err = px.Snapshot(gk.Dom.ID)
			return err
		},
	},
}
