package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"

	"vmmk/internal/core"
	"vmmk/internal/hw"
	"vmmk/internal/hw/dev"
	"vmmk/internal/simrand"
	"vmmk/internal/trace"
)

// The io workload's shape: a request mix over three long-lived stacks that
// reboot every ioEpochOps requests.
const (
	ioEpochOps = 2048
	ioEpochs   = 100 // per full-size rep
	ioBlocks   = 256 // the stacks' default per-guest disk size
	ioBurst    = 4   // packets per rx or tx request
	ioPacket   = 1500
	ioPage     = 4096
)

// ioWorkload is the steady-state data path the paper argues about.
var ioWorkload = &Workload{
	Name:     "io",
	Ops:      ioEpochOps * ioEpochs,
	EpochOps: ioEpochOps,
	spans:    ioSpans(),
	new:      newIO,
}

var (
	ioPlatforms = []string{"vmm", "mk", "native"}
	ioKinds     = [...]string{"rx", "tx", "syscall", "blk_write", "blk_read"}
)

func ioSpans() []spanMetric {
	var out []spanMetric
	for _, p := range ioPlatforms {
		out = append(out, spanMetric{span: p + ".boot", name: p + ".boot_us", unit: "us"})
		for _, k := range ioKinds {
			out = append(out, spanMetric{span: p + "." + k, name: p + "." + k + "_us", unit: "us"})
		}
	}
	return out
}

// ioPatterns are the block contents writes choose from; reads must return
// the last one written to the block this epoch, or ioZeros.
var (
	ioPatterns = func() [][]byte {
		r := simrand.New(0x10)
		out := make([][]byte, 8)
		for i := range out {
			b := make([]byte, ioPage)
			for j := range b {
				b[j] = byte(r.Uint64()) | 1
			}
			out[i] = b
		}
		return out
	}()
	ioZeros = make([]byte, ioPage)
)

// ioStack is one platform under the io workload.
type ioStack struct {
	name  string
	p     core.Platform
	nic   *dev.NIC
	boot  string               // span name of the boot
	spans [len(ioKinds)]string // span name per request kind
	disk  [ioBlocks]int        // pattern index + 1 last written this epoch, 0: never
	// epoch baselines, taken right after boot
	free0      int
	cyc0, ipc0 uint64
	reqs       int
	// timed-phase totals
	totalReqs  int
	cycles     uint64
	ipc        uint64
	framesLost int
}

func (s *ioStack) start() error {
	cfg := core.Config{}
	switch s.name {
	case "vmm":
		x, err := core.NewXenStack(cfg)
		if err != nil {
			return err
		}
		s.p, s.nic = x, x.NIC
	case "mk":
		k, err := core.NewMKStack(cfg)
		if err != nil {
			return err
		}
		s.p, s.nic = k, k.NIC
	default:
		n, err := core.NewNativeStack(cfg)
		if err != nil {
			return err
		}
		s.p, s.nic = n, n.NIC
	}
	if ps := s.p.M().Mem.PageSize(); ps != ioPage {
		return fmt.Errorf("%s: page size %d, want %d", s.name, ps, ioPage)
	}
	m := s.p.M()
	s.disk = [ioBlocks]int{}
	s.free0, s.cyc0, s.ipc0, s.reqs = m.Mem.FreeFrames(), m.Rec.TotalCycles(), m.Rec.IPCEquivalentOps(), 0
	return nil
}

type ioRig struct {
	env    *env
	stacks []*ioStack
	rng    *simrand.Rand
}

func newIO(e *env) rig {
	d := &ioRig{env: e}
	for _, p := range ioPlatforms {
		s := &ioStack{name: p, boot: p + ".boot"}
		for k, kind := range ioKinds {
			s.spans[k] = p + "." + kind
		}
		d.stacks = append(d.stacks, s)
	}
	return d
}

// setup runs the rep's first epoch untimed: the first boot, the warm-up
// and the pre-check whose digest the timed phase must reproduce.
func (d *ioRig) setup() error {
	if err := runEpoch(d, ioEpochOps, d.env.first); err != nil {
		return err
	}
	for _, s := range d.stacks {
		s.totalReqs, s.cycles, s.ipc, s.framesLost = 0, 0, 0, 0
	}
	return nil
}

func (d *ioRig) beginEpoch(ep int) error {
	d.rng = d.env.epochRand(ep)
	for _, s := range d.stacks {
		sp := d.env.tr.begin(s.boot)
		err := s.start()
		d.env.tr.end(sp)
		if err != nil {
			return fmt.Errorf("boot %s: %w", s.name, err)
		}
	}
	return nil
}

// op issues one request: 40% rx, 20% tx, 10% syscall, 15% block write,
// 15% block read, on a stack drawn with equal odds.
func (d *ioRig) op(int) error {
	s := d.stacks[d.rng.Intn(len(d.stacks))]
	kind := d.rng.Uint64n(100)
	block := d.rng.Intn(ioBlocks)
	pat := d.rng.Intn(len(ioPatterns))
	s.reqs++
	tr := d.env.tr
	switch {
	case kind < 40:
		sp := tr.begin(s.spans[0])
		s.p.InjectPackets(ioBurst, ioPacket, 0)
		n := s.p.DrainRx(0)
		tr.end(sp)
		if n != ioBurst {
			return fmt.Errorf("%s rx: drained %d packets, injected %d", s.name, n, ioBurst)
		}
	case kind < 60:
		sp := tr.begin(s.spans[1])
		err := s.p.SendPackets(ioBurst, ioPacket, 0)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s tx: %w", s.name, err)
		}
		wire := s.nic.Transmitted()
		if len(wire) != ioBurst {
			return fmt.Errorf("%s tx: wire saw %d packets, sent %d", s.name, len(wire), ioBurst)
		}
		for _, p := range wire {
			if len(p.Data) != ioPacket {
				return fmt.Errorf("%s tx: wire saw a %d B packet, sent %d B", s.name, len(p.Data), ioPacket)
			}
		}
	case kind < 70:
		sp := tr.begin(s.spans[2])
		err := s.p.DoSyscall(0, 1, 0)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s syscall: %w", s.name, err)
		}
	case kind < 85:
		sp := tr.begin(s.spans[3])
		err := s.p.StorageWrite(0, uint64(block), ioPatterns[pat])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s write block %d: %w", s.name, block, err)
		}
		s.disk[block] = pat + 1
	default:
		sp := tr.begin(s.spans[4])
		got, err := s.p.StorageRead(0, uint64(block))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s read block %d: %w", s.name, block, err)
		}
		want := ioZeros
		if k := s.disk[block]; k > 0 {
			want = ioPatterns[k-1]
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s read block %d: data differs from the last write", s.name, block)
		}
	}
	return nil
}

func (d *ioRig) endEpoch(ep, ops int) error {
	h := sha256.New()
	for _, s := range d.stacks {
		m := s.p.M()
		s.framesLost += s.free0 - m.Mem.FreeFrames()
		s.cycles += m.Rec.TotalCycles() - s.cyc0
		s.ipc += m.Rec.IPCEquivalentOps() - s.ipc0
		s.totalReqs += s.reqs
		rxDrops, txDone := s.nic.Stats()
		fmt.Fprintf(h, "%s reqs=%d rxdrops=%d txdone=%d ", s.name, s.reqs, rxDrops, txDone)
		machineStats(h, m)
		s.p.Close()
	}
	if ops < ioEpochOps {
		return nil // a partial epoch has no stored digest
	}
	return d.env.checkEpoch(ep, epochDigest(h))
}

func (d *ioRig) counters() map[string]float64 {
	out := map[string]float64{}
	for _, s := range d.stacks {
		if s.totalReqs == 0 {
			continue
		}
		n := float64(s.totalReqs)
		out[s.name+".sim_cycles_per_op"] = float64(s.cycles) / n
		if s.name != "native" {
			out[s.name+".ipc_equiv_per_op"] = float64(s.ipc) / n
		}
		out[s.name+".frames_lost_per_kop"] = float64(s.framesLost) * 1000 / n
	}
	return out
}

// machineStats writes a machine's simulated statistics — virtual clock,
// memory, every event counter and every component's cycles — for a digest.
func machineStats(w io.Writer, m *hw.Machine) {
	allocs, flips := m.Mem.Stats()
	fmt.Fprintf(w, "now=%d free=%d allocs=%d flips=%d counts=", m.Now(), m.Mem.FreeFrames(), allocs, flips)
	for k := 0; k < trace.NKinds; k++ {
		fmt.Fprintf(w, "%d,", m.Rec.Counts(trace.Kind(k)))
	}
	for _, c := range m.Rec.Components() {
		fmt.Fprintf(w, " %s=%d", c, m.Rec.Cycles(c))
	}
	fmt.Fprintln(w)
}
