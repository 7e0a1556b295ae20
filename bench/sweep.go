package bench

import (
	"context"
	"fmt"
	"strings"

	"vmmk/internal/core"
	"vmmk/internal/simrand"
)

// sweepWorkload is `vmmklab all`: the product end to end.
var sweepWorkload = &Workload{
	Name:  "sweep",
	Ops:   50,
	spans: sweepSpans(),
	new:   newSweep,
}

// sweepSpans declares core.<id>_ms for every registered experiment plus the
// op's rendering.
func sweepSpans() []spanMetric {
	out := []spanMetric{{span: "core.render", name: "core.render_ms", unit: "ms"}}
	for _, s := range core.Specs() {
		out = append(out, spanMetric{span: "core." + s.ID, name: "core." + s.ID + "_ms", unit: "ms"})
	}
	return out
}

// sweep runs all experiments per op, each op in its own seeded order:
// which experiment boots a machine and which reuses a pooled one depends on
// the order, so a run averages over many orders.
type sweep struct {
	noEpochs
	env   *env
	ids   []string
	spans []string // "core.<id>", per ids entry
	want  map[string]string
	rng   *simrand.Rand
}

func newSweep(e *env) rig {
	s := &sweep{env: e, rng: e.opRand()}
	for _, spec := range core.Specs() {
		s.ids = append(s.ids, spec.ID)
		s.spans = append(s.spans, "core."+spec.ID)
	}
	return s
}

func (s *sweep) setup() error {
	want, err := sweepDigests()
	if err != nil {
		return err
	}
	for _, id := range s.ids {
		if want[id] == "" {
			return fmt.Errorf("sweep oracle has no digest for %s", id)
		}
	}
	s.want = want
	return s.op(-1)
}

// op runs every experiment on a fresh serial runner, renders them all, and
// checks each text against the oracle.
func (s *sweep) op(int) error {
	r := core.NewRunner(1)
	order := s.rng.Perm(len(s.ids))
	results := make([]*core.Result, len(s.ids))
	for _, k := range order {
		sp := s.env.tr.begin(s.spans[k])
		res, err := r.RunExperiment(context.Background(), s.ids[k], nil)
		s.env.tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", s.ids[k], err)
		}
		results[k] = res
	}
	sp := s.env.tr.begin("core.render")
	texts := make([]string, len(results))
	for _, k := range order {
		texts[k] = results[k].Text()
	}
	s.env.tr.end(sp)
	var bad []string
	for k, txt := range texts {
		if digest(txt) != s.want[s.ids[k]] {
			bad = append(bad, s.ids[k])
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("experiment text differs from the oracle: %s", strings.Join(bad, ","))
	}
	return nil
}
