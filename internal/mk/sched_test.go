package mk

import (
	"maps"
	"slices"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/simrand"
	"vmmk/internal/trace"
)

// classModel is a reference scheduler: a pick groups the live threads
// placed on the CPU into priority classes, takes the highest class, and
// within it the first thread whose ID follows the installed thread's,
// wrapping to the class's lowest ID. Only re-homing an installed thread
// sends an IPI.
type classModel struct {
	threads  []*modelThread // in ID order
	current  []*modelThread // per CPU
	switches uint64
	ipis     uint64

	rotations, killsInstalled uint64 // what the streams exercised
}

type modelThread struct {
	id       ThreadID
	prio     int
	dead     bool
	affinity int
}

func (m *classModel) schedule(cpu int) *modelThread {
	classes := map[int][]*modelThread{}
	for _, t := range m.threads {
		if !t.dead && t.affinity == cpu {
			classes[t.prio] = append(classes[t.prio], t)
		}
	}
	if len(classes) == 0 {
		return nil
	}
	class := classes[slices.Max(slices.Collect(maps.Keys(classes)))]
	next := class[0]
	if cur := m.current[cpu]; cur != nil {
		if i := slices.IndexFunc(class, func(t *modelThread) bool { return t.id > cur.id }); i > 0 {
			next = class[i]
			m.rotations++
		}
	}
	if next != m.current[cpu] {
		m.switches++
		m.current[cpu] = next
	}
	return next
}

func (m *classModel) setAffinity(t *modelThread, cpu int) {
	if t.dead || t.affinity == cpu {
		return
	}
	if m.current[t.affinity] == t {
		m.current[t.affinity] = nil
		m.ipis++
	}
	t.affinity = cpu
}

func (m *classModel) kill(t *modelThread) {
	if t.dead {
		return
	}
	t.dead = true
	if m.current[t.affinity] == t {
		m.current[t.affinity] = nil
		m.killsInstalled++
	}
}

// TestSchedulerMatchesClassQueues runs seeded streams of thread creation,
// kills, re-homing and scheduling decisions on 1–4 CPUs against the
// per-class reference model: every ScheduleOn must return the model's
// pick, and after every op every thread's CPU, every CPU's installed
// thread, the context switches and the IPIs must agree. A thread is
// installed only on the CPU it is placed on, so never on two at once.
func TestSchedulerMatchesClassQueues(t *testing.T) {
	const seeds, ops = 300, 200
	var rotations, ipis, killsInstalled uint64
	for seed := uint64(1); seed <= seeds; seed++ {
		r := simrand.New(seed)
		ncpus := 1 + r.Intn(4)
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 64, NCPUs: ncpus})
		k := New(m)
		sp, err := k.NewSpace("s", NilThread)
		if err != nil {
			t.Fatal(err)
		}
		model := &classModel{current: make([]*modelThread, ncpus)}
		for op := range ops {
			switch n := r.Intn(10); {
			case n < 3 || len(model.threads) == 0:
				th := k.NewThread(sp, "t", r.Intn(4), nil)
				model.threads = append(model.threads, &modelThread{id: th.ID, prio: th.Prio})
			case n < 4:
				mt := model.threads[r.Intn(len(model.threads))]
				k.KillThread(mt.id)
				model.kill(mt)
			case n < 6:
				mt, cpu := model.threads[r.Intn(len(model.threads))], r.Intn(ncpus)
				err := k.SetAffinity(mt.id, cpu)
				if (err != nil) != mt.dead {
					t.Fatalf("seed %d op %d: SetAffinity(%d, %d) = %v, thread dead %v", seed, op, mt.id, cpu, err, mt.dead)
				}
				model.setAffinity(mt, cpu)
			default:
				cpu := r.Intn(ncpus)
				got, want := k.ScheduleOn(cpu), model.schedule(cpu)
				if (got == nil) != (want == nil) || got != nil && got.ID != want.id {
					t.Fatalf("seed %d op %d: ScheduleOn(%d) = %v, model %v", seed, op, cpu, got, want)
				}
			}
			if got, ipis := m.Rec.Counts(trace.KContextSwitch), m.Rec.Counts(trace.KIPI); got != model.switches || ipis != model.ipis {
				t.Fatalf("seed %d op %d: %d switches, %d IPIs; model %d, %d",
					seed, op, got, ipis, model.switches, model.ipis)
			}
			for _, mt := range model.threads {
				if got := k.Thread(mt.id).Affinity; got != mt.affinity {
					t.Fatalf("seed %d op %d: thread %d on CPU %d, model CPU %d", seed, op, mt.id, got, mt.affinity)
				}
			}
			for cpu, want := range model.current {
				got := k.CurrentOn(cpu)
				if (got == nil) != (want == nil) || got != nil && (got.ID != want.id || got.Affinity != cpu) {
					t.Fatalf("seed %d op %d: CPU %d runs %v, model %v", seed, op, cpu, got, want)
				}
			}
		}
		rotations += model.rotations
		ipis += model.ipis
		killsInstalled += model.killsInstalled
	}
	if rotations == 0 || ipis == 0 || killsInstalled == 0 {
		t.Fatalf("streams exercised %d round-robin rotations, %d re-homing IPIs, %d kills of installed threads; want each > 0",
			rotations, ipis, killsInstalled)
	}
}

// TestScheduleOnIdleCPUInstallsNothing: a CPU with no live thread placed
// on it installs nothing, and it takes no thread from another CPU, so it
// charges no IPI and no context switch.
func TestScheduleOnIdleCPUInstallsNothing(t *testing.T) {
	m, k, client, server := smpRig(t, 3)
	sp, err := k.NewSpace("gone", NilThread)
	if err != nil {
		t.Fatal(err)
	}
	gone := k.NewThread(sp, "gone", 9, nil)
	if err := k.SetAffinity(gone.ID, 2); err != nil {
		t.Fatal(err)
	}
	k.KillThread(gone.ID)
	for _, cpu := range []int{1, 2} { // nothing placed; a dead thread
		if got := k.ScheduleOn(cpu); got != nil || k.CurrentOn(cpu) != nil {
			t.Fatalf("ScheduleOn(%d) installed %v", cpu, got)
		}
	}
	if ipis, switches := m.Rec.Counts(trace.KIPI), m.Rec.Counts(trace.KContextSwitch); ipis != 0 || switches != 0 {
		t.Fatalf("idle CPUs charged %d IPIs and %d context switches", ipis, switches)
	}
	if client.Affinity != 0 || server.Affinity != 0 {
		t.Fatalf("threads moved to CPUs %d and %d", client.Affinity, server.Affinity)
	}
}
