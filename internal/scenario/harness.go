package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"vmmk/internal/core"
	"vmmk/internal/hw"
)

// Row statuses. Every status is one of these three strings, so downstream
// tooling can switch on them.
const (
	StatusPass = "pass"
	StatusFail = "fail"
	StatusSkip = "skip"
)

// RowResult is one row's outcome: the row's declaration echoed back plus
// the status and, for non-pass rows, the detail.
type RowResult struct {
	ID        string
	Subsystem string
	Fault     string
	Expect    string
	Status    string
	Detail    string
}

// skipError marks a row that declined to run (Skip).
type skipError struct{ reason string }

func (e *skipError) Error() string { return "skipped: " + e.reason }

// Skip returns the error a Run function reports to mark its row skipped
// (e.g. a row needing a machine shape the harness cannot provide).
func Skip(reason string) error { return &skipError{reason: reason} }

// Options parameterises a matrix run.
type Options struct {
	// Parallel caps rows in flight (<= 0: GOMAXPROCS). Results are
	// byte-identical at any width.
	Parallel int
	// IDs selects a subset of rows, run in the order given; empty runs the
	// whole matrix in ID order.
	IDs []string
}

// Run executes the matrix and returns one result per row, in row order.
// Each row runs both legs — disarmed control first (the identical path with
// injection off must pass cleanly), then armed (the fault must produce the
// declared outcome) — on machines taken from the worker's pool.
func Run(opts Options) ([]RowResult, error) {
	var rows []S
	if len(opts.IDs) == 0 {
		rows = Rows()
	} else {
		for _, id := range opts.IDs {
			s, ok := Lookup(id)
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q (try 'scenarios list')", id)
			}
			rows = append(rows, s)
		}
	}
	// Every leg runs on this one descriptor. No row writes to its
	// machine's Arch, so the legs share it.
	arch := hw.X86()
	r := core.NewRunner(opts.Parallel)
	return core.RunCells(r, len(rows), func(pool *hw.MachinePool, i int) (RowResult, error) {
		return execute(pool, arch, rows[i]), nil
	})
}

// execute runs one row's two legs on arch machines from pool and folds them
// into a result. When the row declares a Compare, both legs' Envs are
// retained and the cross-leg invariant is graded after both legs pass on
// their own.
func execute(pool *hw.MachinePool, arch *hw.Arch, s S) RowResult {
	res := RowResult{
		ID: s.ID, Subsystem: s.Subsystem, Fault: s.Fault,
		Expect: s.Expect.Desc, Status: StatusPass,
	}
	var legs [2]*Env
	for i, armed := range []bool{false, true} {
		env, detail, skip := runLeg(pool, arch, s, armed)
		if skip != "" {
			res.Status, res.Detail = StatusSkip, skip
			return res
		}
		if detail != "" {
			res.Status, res.Detail = StatusFail, detail
			return res
		}
		legs[i] = env
	}
	if s.Expect.Compare != nil {
		// Both legs' machines are released by now; Compare grades only
		// what the Runs copied into State.
		if cerr := s.Expect.Compare(legs[0], legs[1]); cerr != nil {
			res.Status, res.Detail = StatusFail, fmt.Sprintf("cross-leg compare: %v", cerr)
		}
	}
	return res
}

// runLeg executes one leg of a row on a pooled arch machine, grades it,
// and returns the leg's Env for cross-leg comparison. The leg's machines go
// back to the pool after its Check.
func runLeg(pool *hw.MachinePool, arch *hw.Arch, s S, armed bool) (env *Env, detail, skip string) {
	cfg := s.Cfg
	if cfg == nil {
		cfg = DefaultConfig
	}
	env = &Env{M: pool.Get(arch, cfg), Armed: armed, pool: pool, arch: arch}
	defer env.release()
	err, panicMsg := callRecovered(func() error { return s.Run(env) })
	if err != nil {
		// Declared here, errors.As's target reaches the heap only on a leg
		// that failed.
		var sk *skipError
		if errors.As(err, &sk) {
			return env, "", sk.reason
		}
	}
	leg := "control"
	if armed {
		leg = "armed"
	}
	switch {
	case armed && s.Expect.Panic != "":
		if panicMsg == "" {
			return env, fmt.Sprintf("armed run completed (err=%v), want panic containing %q", err, s.Expect.Panic), ""
		}
		if !strings.Contains(panicMsg, s.Expect.Panic) {
			return env, fmt.Sprintf("armed run panicked with %q, want substring %q", panicMsg, s.Expect.Panic), ""
		}
	case panicMsg != "":
		return env, fmt.Sprintf("%s run panicked: %s", leg, panicMsg), ""
	case armed && s.Expect.Err != nil:
		if err == nil {
			return env, fmt.Sprintf("armed run returned nil, want %v", s.Expect.Err), ""
		}
		if !errors.Is(err, s.Expect.Err) {
			return env, fmt.Sprintf("armed run returned %q, want %v", err, s.Expect.Err), ""
		}
	case err != nil:
		return env, fmt.Sprintf("%s run failed: %v", leg, err), ""
	}
	if s.Expect.Check != nil {
		if cerr := s.Expect.Check(env); cerr != nil {
			return env, fmt.Sprintf("%s post-mortem check: %v", leg, cerr), ""
		}
	}
	return env, "", ""
}

// callRecovered runs fn with a panic converted to its message. A leg's
// expected panics are a legitimate outcome (hw contract violations), an
// unexpected panic in one row must fail that row, not the whole matrix,
// and a hypercall fuzz op that panics fails its storm by name.
func callRecovered(fn func() error) (err error, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	return fn(), ""
}

// Summarize counts results by status.
func Summarize(results []RowResult) (pass, fail, skip int) {
	for _, r := range results {
		switch r.Status {
		case StatusPass:
			pass++
		case StatusSkip:
			skip++
		default:
			fail++
		}
	}
	return pass, fail, skip
}

// Report renders run results through the core.Result model: the matrix
// table plus a per-subsystem summary, so `vmmklab scenarios` emits the same
// text/CSV/JSON shapes as the experiments.
func Report(results []RowResult) *core.Result {
	matrix := core.NewResultTable("scenario matrix",
		core.Col("id", ""), core.Col("subsystem", ""), core.Col("fault", ""),
		core.Col("expected", ""), core.Col("status", ""), core.Col("detail", ""))
	bySub := map[string]*[3]int{}
	for _, r := range results {
		matrix.AddRow(r.ID, r.Subsystem, r.Fault, r.Expect, r.Status, r.Detail)
		c := bySub[r.Subsystem]
		if c == nil {
			c = &[3]int{}
			bySub[r.Subsystem] = c
		}
		switch r.Status {
		case StatusPass:
			c[0]++
		case StatusFail:
			c[1]++
		default:
			c[2]++
		}
	}
	summary := core.NewResultTable("rows by subsystem",
		core.Col("subsystem", ""), core.Col("rows", ""), core.Col("pass", ""),
		core.Col("fail", ""), core.Col("skip", ""))
	subs := make([]string, 0, len(bySub))
	for sub := range bySub {
		subs = append(subs, sub)
	}
	sort.Strings(subs)
	for _, sub := range subs {
		c := bySub[sub]
		summary.AddRow(sub, c[0]+c[1]+c[2], c[0], c[1], c[2])
	}
	res := core.NewResult(matrix, summary)
	res.Experiment = "scenarios"
	res.Title = "fault-injection scenario matrix"
	res.Params = core.Params{}
	return res
}

// ListReport renders the matrix declaration (no execution) as a core.Result
// — the `vmmklab scenarios list` output.
func ListReport() *core.Result {
	t := core.NewResultTable("scenario matrix",
		core.Col("id", ""), core.Col("subsystem", ""),
		core.Col("fault", ""), core.Col("expected", ""))
	for _, s := range Rows() {
		t.AddRow(s.ID, s.Subsystem, s.Fault, s.Expect.Desc)
	}
	res := core.NewResult(t)
	res.Experiment = "scenarios"
	res.Title = "fault-injection scenario matrix"
	res.Params = core.Params{}
	return res
}
