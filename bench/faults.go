package bench

import (
	"fmt"

	"vmmk/internal/scenario"
	"vmmk/internal/simrand"
)

// faultsWorkload is the pinned fault-injection matrix: many small
// short-lived machines.
var faultsWorkload = &Workload{
	Name:  "faults",
	Ops:   400,
	spans: faultsSpans(),
	new:   newFaults,
}

func faultsSpans() []spanMetric {
	var out []spanMetric
	for _, sub := range scenario.Subsystems {
		out = append(out, spanMetric{span: "scenario." + sub, name: "scenario." + sub + "_ms", unit: "ms"})
	}
	return out
}

// faults runs the pinned rows once per op, each op in a fresh seeded
// permutation. A traced op runs them as one scenario.Run per subsystem so
// each subsystem's rows get their own span.
type faults struct {
	noEpochs
	env *env
	ids []string
	sub map[string]string // row id -> subsystem
	rng *simrand.Rand
}

func newFaults(e *env) rig {
	return &faults{env: e, rng: e.opRand(), sub: map[string]string{}}
}

func (f *faults) setup() error {
	ids, err := readLines("faults.ids")
	if err != nil {
		return err
	}
	for _, id := range ids {
		s, ok := scenario.Lookup(id)
		if !ok {
			return fmt.Errorf("pinned scenario %q is not registered", id)
		}
		f.sub[id] = s.Subsystem
	}
	f.ids = ids
	return f.op(-1)
}

func (f *faults) op(int) error {
	order := make([]string, len(f.ids))
	for i, k := range f.rng.Perm(len(f.ids)) {
		order[i] = f.ids[k]
	}
	var results []scenario.RowResult
	if f.env.tr == nil {
		res, err := scenario.Run(scenario.Options{Parallel: 1, IDs: order})
		if err != nil {
			return err
		}
		results = res
	} else {
		for _, sub := range scenario.Subsystems {
			var subset []string
			for _, id := range order {
				if f.sub[id] == sub {
					subset = append(subset, id)
				}
			}
			if len(subset) == 0 {
				continue
			}
			sp := f.env.tr.begin("scenario." + sub)
			res, err := scenario.Run(scenario.Options{Parallel: 1, IDs: subset})
			f.env.tr.end(sp)
			if err != nil {
				return err
			}
			results = append(results, res...)
		}
	}
	if len(results) != len(f.ids) {
		return fmt.Errorf("%d rows ran, want %d", len(results), len(f.ids))
	}
	for _, r := range results {
		if r.Status != scenario.StatusPass {
			return fmt.Errorf("row %s: %s: %s", r.ID, r.Status, r.Detail)
		}
	}
	return nil
}

func (f *faults) counters() map[string]float64 {
	return map[string]float64{"scenario.rows": float64(len(f.ids))}
}
