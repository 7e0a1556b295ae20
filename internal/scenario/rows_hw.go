package scenario

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/trace"
)

// hw rows: contract violations against the bare machine. The hardware layer
// panics on programming errors (a nonexistent APIC ID is always a kernel
// bug, never a recoverable condition) and reports resource exhaustion and
// bad device requests through typed errors and completion status.

// smpConfig is the machine shape for the rows that need more than one CPU.
var smpConfig = &hw.MachineConfig{Frames: 1024, NCPUs: 4}

// hwState carries expectations from Run to Check.
type hwState struct {
	free0 int
	want  uint64
	comps []dev.DiskCompletion
}

// hwRows is the hw layer's share of the matrix.
var hwRows = []S{
	{
		ID:        "hw/ipi-nonexistent-cpu",
		Subsystem: "hw",
		Fault:     "IPI aimed at CPU 9 of a 4-CPU machine",
		Cfg:       smpConfig,
		Expect: Outcome{
			Desc: "panic: CPU index out of range",
			// hw.Machine.checkCPU: programming a nonexistent APIC ID.
			Panic: "CPU index out of range",
			Check: func(env *Env) error {
				if env.Armed {
					return nil // the send never reached the controller
				}
				if got := env.M.Rec.Counts(trace.KIPI); got != 1 {
					return fmt.Errorf("IPIs = %d, want 1", got)
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			to := 1
			if env.Armed {
				to = 9
			}
			env.M.SendIPI(0, to)
			return nil
		},
	},

	{
		ID:        "hw/shootdown-nonexistent-cpu",
		Subsystem: "hw",
		Fault:     "TLB shootdown targeting CPU 9 of a 4-CPU machine",
		Cfg:       smpConfig,
		Expect: Outcome{
			Desc:  "panic: CPU index out of range",
			Panic: "CPU index out of range",
		},
		Run: func(env *Env) error {
			target := 1
			if env.Armed {
				target = 9
			}
			env.M.ShootdownAll(0, hw.CPUSet(1)<<target)
			return nil
		},
	},

	{
		ID:        "hw/alloc-beyond-physmem",
		Subsystem: "hw",
		Fault:     "frame allocation asks for one frame more than physical memory holds",
		Expect: Outcome{
			Desc: "ErrOutOfMemory; allocation is atomic, free count unchanged",
			Err:  hw.ErrOutOfMemory,
			Check: func(env *Env) error {
				st := env.State.(*hwState)
				want := st.free0 - 4 // control allocated 4
				if env.Armed {
					want = st.free0 // failed AllocN must not leak frames
				}
				if got := env.M.Mem.FreeFrames(); got != want {
					return fmt.Errorf("free frames %d, want %d", got, want)
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			st := &hwState{free0: env.M.Mem.FreeFrames()}
			env.State = st
			n := 4
			if env.Armed {
				n = env.M.Mem.TotalFrames() + 1
			}
			_, err := env.M.Mem.AllocN(env.M.Rec.Intern("scenario"), n)
			return err
		},
	},

	{
		ID:        "hw/disk-request-beyond-capacity",
		Subsystem: "hw",
		Fault:     "disk read submitted for a block past the device's last block",
		Expect: Outcome{
			Desc: "completion arrives with OK=false; no crash, no hang",
			Check: func(env *Env) error {
				st := env.State.(*hwState)
				if len(st.comps) != 1 {
					return fmt.Errorf("%d completions, want 1", len(st.comps))
				}
				c := st.comps[0]
				if c.Req.Tag != 7 {
					return fmt.Errorf("completion tag %d, want 7", c.Req.Tag)
				}
				if env.Armed == c.OK {
					return fmt.Errorf("completion OK=%v with fault armed=%v", c.OK, env.Armed)
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			disk := dev.NewDisk(env.M, dev.DiskConfig{Blocks: 128, Latency: 1000})
			f, err := env.M.Mem.Alloc(env.M.Rec.Intern("scenario"))
			if err != nil {
				return err
			}
			block := uint64(5)
			if env.Armed {
				block = 1 << 40
			}
			disk.Submit(dev.DiskReq{Op: dev.DiskRead, Block: block, Frame: f, Tag: 7})
			env.M.RunUntilIdle(64)
			env.State = &hwState{comps: disk.Reap()}
			return nil
		},
	},

	{
		ID:        "hw/ipi-storm-smp",
		Subsystem: "hw",
		Fault:     "100k back-to-back cross-CPU IPIs around a 4-CPU ring",
		Cfg:       smpConfig,
		Expect: Outcome{
			Desc: "trace invariant: delivered == sent, clock strictly advances",
			Check: func(env *Env) error {
				st := env.State.(*hwState)
				if got := env.M.Rec.Counts(trace.KIPI); got != st.want {
					return fmt.Errorf("IPIs delivered %d, want %d (storm lost interrupts)", got, st.want)
				}
				if env.M.Now() == 0 {
					return fmt.Errorf("clock did not advance under the storm")
				}
				return nil
			},
		},
		Run: func(env *Env) error {
			per := uint64(10)
			if env.Armed {
				per = 100000
			}
			ncpu := env.M.NCPUs()
			for src := 0; src < ncpu; src++ {
				env.M.SendIPIN(src, (src+1)%ncpu, per)
			}
			env.State = &hwState{want: per * uint64(ncpu)}
			return nil
		},
	},
}
