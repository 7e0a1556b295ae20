package bench

import (
	"fmt"
	"time"

	"vmmk/internal/hw"
	"vmmk/internal/mk"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// The probe phase times single layer primitives through their public APIs,
// each as the median over probeBatches batches of the batch's mean.
const probeBatches = 21

// probe is one timed primitive reported as the per-layer metric name.
type probe struct {
	name string
	unit string // "ns" or "us"
	// run sets up untimed state, then times one batch and returns its
	// elapsed time and the number of primitive operations it covered.
	run func() (time.Duration, int, error)
}

// timeN times n calls of fn, stopping at the first error.
func timeN(n int, fn func(i int) error) (time.Duration, error) {
	t := now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return now().Sub(t), nil
}

var probes = []probe{
	{"trace.charge_ns", "ns", probeCharge(1)},
	{"trace.charge_n64_ns", "ns", probeCharge(64)},
	{"hw.machine_boot_us", "us", probeMachineBoot},
	{"hw.pool_get_put_us", "us", probePoolGetPut},
	{"vmm.hypercall_ns", "ns", probeHypercall},
	{"vmm.grant_flip_ns", "ns", probeGrant(true)},
	{"vmm.grant_copy_ns", "ns", probeGrant(false)},
	{"vmm.domain_cycle_us", "us", probeDomainCycle},
	{"vmm.migrate_page_ns", "ns", probeMigratePage},
	{"mk.ipc_call_ns", "ns", probeIPCCall},
}

// Probes runs every probe and returns its median per-op time by metric
// name; failed counts probes whose primitive returned an error.
func Probes() (out map[string]float64, failed int, errs []string) {
	out = map[string]float64{}
	for _, p := range probes {
		vs := make([]float64, 0, probeBatches)
		for b := 0; b < probeBatches; b++ {
			d, n, err := p.run()
			if err != nil {
				failed++
				errs = append(errs, fmt.Sprintf("%s: %v", p.name, err))
				vs = nil
				break
			}
			vs = append(vs, float64(d)/float64(n)/unitNS[p.unit])
		}
		if vs != nil {
			out[p.name] = median(vs)
		}
	}
	return out, failed, errs
}

func bootVMM(frames, dom0 int) (*vmm.Hypervisor, *vmm.Domain, error) {
	return vmm.New(hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: frames}), dom0)
}

// probeCharge charges a warm machine's recorder: one event per Charge, or
// count events per ChargeN. The loops are written out because a call
// through timeN would cost as much as the charge itself.
func probeCharge(count uint64) func() (time.Duration, int, error) {
	const n = 100000
	return func() (time.Duration, int, error) {
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 16})
		c := m.Rec.Intern("bench.probe")
		for i := 0; i < 1000; i++ {
			m.Rec.Charge(uint64(i), trace.KHypercall, c, 1)
		}
		before := m.Rec.Counts(trace.KHypercall)
		t := now()
		if count == 1 {
			for i := uint64(0); i < n; i++ {
				m.Rec.Charge(i, trace.KHypercall, c, 1)
			}
		} else {
			for i := uint64(0); i < n; i++ {
				m.Rec.ChargeN(i, trace.KHypercall, c, 1, count)
			}
		}
		d := now().Sub(t)
		if got := m.Rec.Counts(trace.KHypercall) - before; got != n*count {
			return 0, 0, fmt.Errorf("recorder counted %d events, charged %d", got, n*count)
		}
		return d, n, nil
	}
}

func probeMachineBoot() (time.Duration, int, error) {
	const n = 20
	d, err := timeN(n, func(int) error {
		if m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 4096}); m.Mem.FreeFrames() != 4096 {
			return fmt.Errorf("fresh machine has %d free frames", m.Mem.FreeFrames())
		}
		return nil
	})
	return d, n, err
}

// probePoolGetPut returns a machine whose 256-page domain was written
// through vmm to its pool and takes it back: the Reset path cells pay.
func probePoolGetPut() (time.Duration, int, error) {
	const n = 5
	cfg := &hw.MachineConfig{Frames: 4096}
	pool := hw.NewMachinePool()
	m := pool.Get(hw.X86(), cfg)
	page := make([]byte, 64)
	var total time.Duration
	for i := 0; i < n; i++ {
		h, _, err := vmm.New(m, 32)
		if err != nil {
			return 0, 0, err
		}
		d, err := h.CreateDomain("probe", 256)
		if err != nil {
			return 0, 0, err
		}
		for gpn := 0; gpn < 256; gpn++ {
			page[0] = byte(gpn)
			if err := h.GuestMemWrite(d.ID, gpn, 0, page); err != nil {
				return 0, 0, err
			}
		}
		t := now()
		pool.Put(m)
		m = pool.Get(hw.X86(), cfg)
		total += now().Sub(t)
		if m.Mem.FreeFrames() != 4096 {
			return 0, 0, fmt.Errorf("pooled machine has %d free frames after Reset", m.Mem.FreeFrames())
		}
	}
	if hits, _ := pool.Stats(); hits != n {
		return 0, 0, fmt.Errorf("pool served %d of %d gets", hits, n)
	}
	return total, n, nil
}

func probeHypercall() (time.Duration, int, error) {
	h, _, err := bootVMM(512, 64)
	if err != nil {
		return 0, 0, err
	}
	u, err := h.CreateDomain("u", 16)
	if err != nil {
		return 0, 0, err
	}
	const n = 20000
	d, err := timeN(n, func(int) error { return h.Hypercall(u.ID, "nop", 0) })
	return d, n, err
}

// probeGrant times GrantAccess plus either a page flip (ping-ponging one
// frame between two domains) or a 1500-byte grant copy.
func probeGrant(flip bool) func() (time.Duration, int, error) {
	return func() (time.Duration, int, error) {
		h, d0, err := bootVMM(512, 64)
		if err != nil {
			return 0, 0, err
		}
		u, err := h.CreateDomain("u", 16)
		if err != nil {
			return 0, 0, err
		}
		const n = 2000
		if flip {
			f, owner, peer := d0.FrameAt(0), d0, u
			d, err := timeN(n, func(int) error {
				ref, err := h.GrantAccess(owner.ID, f, peer.ID, false)
				if err != nil {
					return err
				}
				if _, err := h.GrantTransfer(peer.ID, owner.ID, ref); err != nil {
					return err
				}
				owner, peer = peer, owner
				return nil
			})
			return d, n, err
		}
		src, dst := d0.FrameAt(0), u.FrameAt(0)
		d, err := timeN(n, func(int) error {
			ref, err := h.GrantAccess(d0.ID, src, u.ID, true)
			if err != nil {
				return err
			}
			return h.GrantCopy(u.ID, d0.ID, ref, dst, ioPacket)
		})
		return d, n, err
	}
}

func probeDomainCycle() (time.Duration, int, error) {
	h, _, err := bootVMM(4096, 64)
	if err != nil {
		return 0, 0, err
	}
	const n = 200
	d, err := timeN(n, func(int) error {
		dom, err := h.CreateDomain("cycle", 64)
		if err != nil {
			return err
		}
		return h.DestroyDomain(dom.ID)
	})
	return d, n, err
}

// probeMigratePage live-migrates a 64-page domain back and forth between
// two hosts and reports the cost per page.
func probeMigratePage() (time.Duration, int, error) {
	const pages, n = 64, 10
	a, _, err := bootVMM(1024, 64)
	if err != nil {
		return 0, 0, err
	}
	b, _, err := bootVMM(1024, 64)
	if err != nil {
		return 0, 0, err
	}
	dom, err := a.CreateDomain("mig", pages)
	if err != nil {
		return 0, 0, err
	}
	src, dst, id := a, b, dom.ID
	d, err := timeN(n, func(int) error {
		shell, _, err := vmm.MigrateLive(src, id, dst, vmm.LiveOpts{})
		if err != nil {
			return err
		}
		if err := dst.Unpause(shell.ID); err != nil {
			return err
		}
		src, dst, id = dst, src, shell.ID
		return nil
	})
	return d, n * pages, err
}

func probeIPCCall() (time.Duration, int, error) {
	k := mk.New(hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 256}))
	cs, err := k.NewSpace("c", mk.NilThread)
	if err != nil {
		return 0, 0, err
	}
	ss, err := k.NewSpace("s", mk.NilThread)
	if err != nil {
		return 0, 0, err
	}
	cl := k.NewThread(cs, "c", 1, nil)
	srv := k.NewThread(ss, "s", 2, func(_ *mk.Kernel, _ mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
		return msg, nil
	})
	msg := mk.Msg{Words: []uint64{1}}
	const n = 20000
	d, err := timeN(n, func(int) error {
		_, err := k.Call(cl.ID, srv.ID, msg)
		return err
	})
	return d, n, err
}
