package mk

import (
	"slices"
	"testing"

	"vmmk/internal/hw"
	"vmmk/internal/simrand"
	"vmmk/internal/trace"
)

// classModel is a reference scheduler: per CPU, one FIFO per priority
// class, visited from the highest class down, with a pick rotating its
// winner to the back of its class. A steal scans the other CPUs in
// ascending order, each in the same class order.
type classModel struct {
	cpus   []classCPU
	steals uint64
	ipis   uint64
}

type classCPU struct {
	queues   map[int][]*modelThread // priority -> FIFO
	prios    []int                  // descending
	current  *modelThread
	switches uint64
}

type modelThread struct {
	id       ThreadID
	prio     int
	dead     bool
	affinity int
	onCPU    int
}

func newClassModel(ncpus int) *classModel {
	m := &classModel{cpus: make([]classCPU, ncpus)}
	for i := range m.cpus {
		m.cpus[i].queues = map[int][]*modelThread{}
	}
	return m
}

func (q *classCPU) add(t *modelThread) {
	if _, ok := q.queues[t.prio]; !ok {
		q.prios = append(q.prios, t.prio)
		slices.SortFunc(q.prios, func(a, b int) int { return b - a })
	}
	q.queues[t.prio] = append(q.queues[t.prio], t)
}

func (q *classCPU) remove(t *modelThread) {
	q.queues[t.prio] = slices.DeleteFunc(q.queues[t.prio], func(x *modelThread) bool { return x == t })
	if q.current == t {
		q.current = nil
		t.onCPU = -1
	}
}

func (m *classModel) pick(cpu int) *modelThread {
	q := &m.cpus[cpu]
	for _, p := range q.prios {
		for i, t := range q.queues[p] {
			if t.dead || t.onCPU >= 0 && t.onCPU != cpu {
				continue
			}
			q.queues[p] = append(slices.Delete(q.queues[p], i, i+1), t)
			return t
		}
	}
	for v := range m.cpus {
		if v == cpu {
			continue
		}
		vq := &m.cpus[v]
		for _, p := range vq.prios {
			for _, t := range vq.queues[p] {
				if t.dead || t.onCPU >= 0 {
					continue
				}
				vq.remove(t)
				t.affinity = cpu
				q.add(t)
				m.steals++
				m.ipis++
				return t
			}
		}
	}
	return nil
}

func (m *classModel) schedule(cpu int) *modelThread {
	q := &m.cpus[cpu]
	next := m.pick(cpu)
	if next != nil && next != q.current {
		q.switches++
		if q.current != nil {
			q.current.onCPU = -1
		}
		q.current = next
		next.onCPU = cpu
	}
	return next
}

func (m *classModel) setAffinity(t *modelThread, cpu int) {
	if t.dead || t.affinity == cpu {
		return
	}
	wasOn := t.onCPU
	m.cpus[t.affinity].remove(t)
	t.affinity = cpu
	m.cpus[cpu].add(t)
	if wasOn >= 0 {
		m.ipis++
	}
}

func (m *classModel) kill(t *modelThread) {
	if t.dead {
		return
	}
	t.dead = true
	m.cpus[t.affinity].remove(t)
}

// TestSchedulerMatchesClassQueues runs seeded streams of thread creation,
// kills, re-homing and scheduling decisions on 1–4 CPUs against the
// per-class reference model: every ScheduleOn must return the model's
// pick, and every thread's CPU, the switches and the IPIs must agree after
// every op.
func TestSchedulerMatchesClassQueues(t *testing.T) {
	const seeds, ops = 300, 200
	var steals uint64
	for seed := uint64(1); seed <= seeds; seed++ {
		r := simrand.New(seed)
		ncpus := 1 + r.Intn(4)
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 64, NCPUs: ncpus})
		k := New(m)
		sp, err := k.NewSpace("s", NilThread)
		if err != nil {
			t.Fatal(err)
		}
		model := newClassModel(ncpus)
		var threads []*modelThread
		for op := range ops {
			switch n := r.Intn(10); {
			case n < 3 || len(threads) == 0:
				th := k.NewThread(sp, "t", r.Intn(4), nil)
				mt := &modelThread{id: th.ID, prio: th.Prio, onCPU: -1}
				threads = append(threads, mt)
				model.cpus[0].add(mt)
			case n < 4:
				mt := threads[r.Intn(len(threads))]
				k.KillThread(mt.id)
				model.kill(mt)
			case n < 6:
				mt, cpu := threads[r.Intn(len(threads))], r.Intn(ncpus)
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
			var switches uint64
			for i := range model.cpus {
				switches += model.cpus[i].switches
			}
			if got, ipis := m.Rec.Counts(trace.KContextSwitch), m.Rec.Counts(trace.KIPI); got != switches || ipis != model.ipis {
				t.Fatalf("seed %d op %d: %d switches, %d IPIs; model %d, %d",
					seed, op, got, ipis, switches, model.ipis)
			}
			for _, mt := range threads {
				if got := k.Thread(mt.id).Affinity; got != mt.affinity {
					t.Fatalf("seed %d op %d: thread %d on CPU %d, model CPU %d", seed, op, mt.id, got, mt.affinity)
				}
			}
		}
		steals += model.steals
	}
	if steals == 0 {
		t.Fatal("no stream stole work")
	}
}
