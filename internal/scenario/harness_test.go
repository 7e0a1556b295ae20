package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vmmk/internal/hw"
)

// TestMatrixAllPass runs the whole matrix and requires every row to pass —
// this is the repo's negative-testing gate, so a single failing row is a
// real bug (in the row or in the subsystem it probes).
func TestMatrixAllPass(t *testing.T) {
	results, err := Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status != StatusPass {
			t.Errorf("%s: %s (%s)", r.ID, r.Status, r.Detail)
		}
	}
	pass, fail, skip := Summarize(results)
	t.Logf("matrix: %d pass, %d fail, %d skip", pass, fail, skip)
}

// TestMatrixReturnsEveryMachine is the scenario twin of core's
// TestExperimentsPooledVsFresh balance check: every row runs on one pool,
// each row's legs must put back every machine they took, and every machine
// must come back with its frame books balanced.
func TestMatrixReturnsEveryMachine(t *testing.T) {
	pool := hw.NewMachinePool()
	var row string
	puts := 0
	pool.Inspect(func(m *hw.Machine) {
		puts++
		if err := m.Mem.Audit(); err != nil {
			t.Errorf("%s: returned machine fails the frame audit: %v", row, err)
		}
	})
	for _, s := range Rows() {
		row = s.ID
		hits0, misses0 := pool.Stats()
		puts0 := puts
		execute(pool, hw.X86(), s)
		hits, misses := pool.Stats()
		if gets := hits - hits0 + misses - misses0; gets == 0 || uint64(puts-puts0) != gets {
			t.Errorf("%s: took %d machines from the pool and put back %d", row, gets, puts-puts0)
		}
	}
	t.Logf("audited %d returned machines", puts)
}

// TestMatrixCoverage pins the matrix floor: at least 30 rows overall and at
// least 3 per subsystem, so no layer of the stack loses its negative tests.
func TestMatrixCoverage(t *testing.T) {
	rows := Rows()
	if len(rows) < 30 {
		t.Errorf("matrix has %d rows, want >= 30", len(rows))
	}
	perSub := map[string]int{}
	for _, s := range rows {
		perSub[s.Subsystem]++
	}
	for _, sub := range Subsystems {
		if perSub[sub] < 3 {
			t.Errorf("subsystem %s has %d rows, want >= 3", sub, perSub[sub])
		}
	}
}

// TestMatrixDeterministic requires serial and parallel runs to produce
// byte-identical results — the harness's determinism contract, which the CI
// scenarios job and the golden files both lean on.
func TestMatrixDeterministic(t *testing.T) {
	serial, err := Run(Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("serial and parallel runs differ:\nserial: %+v\nwide:   %+v", serial, wide)
	}
	js, err := Report(serial).JSON()
	if err != nil {
		t.Fatal(err)
	}
	jw, err := Report(wide).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(js) != string(jw) {
		t.Fatal("serial and parallel JSON reports differ")
	}
}

// TestRunSubset runs a hand-picked subset and checks results come back in
// the order requested, not registry order.
func TestRunSubset(t *testing.T) {
	ids := []string{"vmm/hypercall-dead-domain", "fslite/read-device-error"}
	results, err := Run(Options{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, id := range ids {
		if results[i].ID != id {
			t.Errorf("result %d is %s, want %s", i, results[i].ID, id)
		}
		if results[i].Status != StatusPass {
			t.Errorf("%s: %s (%s)", id, results[i].Status, results[i].Detail)
		}
	}
}

// TestRunUnknownID requires subset selection to reject ids the matrix does
// not declare.
func TestRunUnknownID(t *testing.T) {
	_, err := Run(Options{IDs: []string{"vmm/no-such-row"}})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("got %v, want unknown-scenario error", err)
	}
}

// fabricate builds a minimal well-formed row around the given hooks so the
// meta-tests below can probe the harness's grading logic directly.
func fabricate(expect Outcome, run func(*Env) error) S {
	return S{
		ID: "hw/fabricated", Subsystem: "hw", Fault: "meta-test fixture",
		Expect: expect, Run: run,
	}
}

// TestHarnessFaultMustFire: a row whose armed leg returns nil when a
// sentinel was declared must fail — a fault that no longer fires is a
// regression in the test, not a pass.
func TestHarnessFaultMustFire(t *testing.T) {
	sentinel := errors.New("sentinel")
	res := execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "sentinel", Err: sentinel},
		func(env *Env) error { return nil }, // fault never fires
	))
	if res.Status != StatusFail || !strings.Contains(res.Detail, "armed run returned nil") {
		t.Fatalf("got %s (%s), want fail on silent armed leg", res.Status, res.Detail)
	}
}

// TestHarnessWrongError: the armed leg returning a different error than
// declared must fail the row.
func TestHarnessWrongError(t *testing.T) {
	res := execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "sentinel", Err: errors.New("declared")},
		func(env *Env) error {
			if env.Armed {
				return errors.New("some other failure")
			}
			return nil
		},
	))
	if res.Status != StatusFail || !strings.Contains(res.Detail, "want declared") {
		t.Fatalf("got %s (%s), want fail on wrong error", res.Status, res.Detail)
	}
}

// TestHarnessControlMustPass: the disarmed leg is the row's own control —
// if the identical path fails with injection off, the row is broken and
// the armed leg's result means nothing.
func TestHarnessControlMustPass(t *testing.T) {
	sentinel := errors.New("sentinel")
	res := execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "sentinel", Err: sentinel},
		func(env *Env) error { return sentinel }, // fails both legs
	))
	if res.Status != StatusFail || !strings.Contains(res.Detail, "control run failed") {
		t.Fatalf("got %s (%s), want control-leg failure", res.Status, res.Detail)
	}
}

// TestHarnessUnexpectedPanic: a panic in a row that declared no panic must
// fail that row (and only that row).
func TestHarnessUnexpectedPanic(t *testing.T) {
	res := execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "sentinel", Err: errors.New("declared")},
		func(env *Env) error { panic("boom") },
	))
	if res.Status != StatusFail || !strings.Contains(res.Detail, "panicked: boom") {
		t.Fatalf("got %s (%s), want panic converted to failure", res.Status, res.Detail)
	}
}

// TestHarnessExpectedPanic: a declared panic substring must match the armed
// leg's panic, and the control leg must still run clean.
func TestHarnessExpectedPanic(t *testing.T) {
	res := execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "panic: boom", Panic: "boom"},
		func(env *Env) error {
			if env.Armed {
				panic("big boom here")
			}
			return nil
		},
	))
	if res.Status != StatusPass {
		t.Fatalf("got %s (%s), want pass", res.Status, res.Detail)
	}
}

// TestHarnessPanicMismatch: an armed panic with the wrong message must fail.
func TestHarnessPanicMismatch(t *testing.T) {
	res := execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "panic: boom", Panic: "boom"},
		func(env *Env) error {
			if env.Armed {
				panic("thud")
			}
			return nil
		},
	))
	if res.Status != StatusFail || !strings.Contains(res.Detail, "want substring") {
		t.Fatalf("got %s (%s), want panic-substring mismatch", res.Status, res.Detail)
	}
}

// TestHarnessCheckRunsBothLegs: the post-mortem Check must run (and can
// fail) in the control leg too — predicates assert both sides of the fault.
func TestHarnessCheckRunsBothLegs(t *testing.T) {
	var legs []bool
	res := execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "check", Check: func(env *Env) error {
			legs = append(legs, env.Armed)
			return nil
		}},
		func(env *Env) error { return nil },
	))
	if res.Status != StatusPass {
		t.Fatalf("got %s (%s), want pass", res.Status, res.Detail)
	}
	if !reflect.DeepEqual(legs, []bool{false, true}) {
		t.Fatalf("check ran for legs %v, want [false true]", legs)
	}

	res = execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "check", Check: func(env *Env) error {
			if !env.Armed {
				return fmt.Errorf("control state wrong")
			}
			return nil
		}},
		func(env *Env) error { return nil },
	))
	if res.Status != StatusFail || !strings.Contains(res.Detail, "control post-mortem check") {
		t.Fatalf("got %s (%s), want control-leg check failure", res.Status, res.Detail)
	}
}

// TestHarnessSkip: a row that returns Skip is reported as skipped, with the
// reason, and does not fail the matrix.
func TestHarnessSkip(t *testing.T) {
	res := execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "never", Err: errors.New("never")},
		func(env *Env) error { return Skip("needs 8 CPUs") },
	))
	if res.Status != StatusSkip || res.Detail != "needs 8 CPUs" {
		t.Fatalf("got %s (%s), want skip with reason", res.Status, res.Detail)
	}
}

// TestHarnessCompare: the cross-leg Compare runs once after both legs pass,
// with the control Env first and the armed Env second, and its error fails
// the row with a cross-leg detail.
func TestHarnessCompare(t *testing.T) {
	ran := 0
	res := execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "trace invariant", Compare: func(control, armed *Env) error {
			ran++
			if control.Armed || !armed.Armed {
				return fmt.Errorf("legs handed to Compare in the wrong order")
			}
			return nil
		}},
		func(env *Env) error {
			env.State = env.Armed
			return nil
		},
	))
	if res.Status != StatusPass {
		t.Fatalf("got %s (%s), want pass", res.Status, res.Detail)
	}
	if ran != 1 {
		t.Fatalf("Compare ran %d times, want 1", ran)
	}

	res = execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "trace invariant", Compare: func(control, armed *Env) error {
			return fmt.Errorf("delta out of bounds")
		}},
		func(env *Env) error { return nil },
	))
	if res.Status != StatusFail || !strings.Contains(res.Detail, "cross-leg compare: delta out of bounds") {
		t.Fatalf("got %s (%s), want cross-leg compare failure", res.Status, res.Detail)
	}
}

// TestHarnessCompareSkippedOnLegFailure: a row whose own legs fail never
// reaches Compare — the per-leg detail, not a confusing cross-leg one, is
// what the matrix reports.
func TestHarnessCompareSkippedOnLegFailure(t *testing.T) {
	ran := false
	res := execute(nil, hw.X86(), fabricate(
		Outcome{Desc: "trace invariant", Compare: func(control, armed *Env) error {
			ran = true
			return nil
		}},
		func(env *Env) error { return fmt.Errorf("leg broke") },
	))
	if res.Status != StatusFail || !strings.Contains(res.Detail, "control run failed") {
		t.Fatalf("got %s (%s), want control-leg failure", res.Status, res.Detail)
	}
	if ran {
		t.Fatal("Compare ran despite a failed leg")
	}
}

// TestShuffledIDs pins the -shuffle contract: a seeded shuffle is a
// permutation of the whole matrix, the same seed always yields the same
// order, and the order actually differs from the sorted registry order.
func TestShuffledIDs(t *testing.T) {
	ids := ShuffledIDs(7)
	if len(ids) != len(Rows()) {
		t.Fatalf("shuffle has %d ids, matrix %d", len(ids), len(Rows()))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("shuffle repeats %s", id)
		}
		seen[id] = true
		if _, ok := Lookup(id); !ok {
			t.Fatalf("shuffle invented %s", id)
		}
	}
	if !reflect.DeepEqual(ids, ShuffledIDs(7)) {
		t.Fatal("same seed produced different orders")
	}
	sorted := make([]string, 0, len(Rows()))
	for _, s := range Rows() {
		sorted = append(sorted, s.ID)
	}
	if reflect.DeepEqual(ids, sorted) {
		t.Fatal("seed 7 left the matrix in sorted order — shuffle is a no-op")
	}
}

// TestReportShape pins the report's table layout: the matrix table plus the
// per-subsystem summary, with one summary line per subsystem present.
func TestReportShape(t *testing.T) {
	results := []RowResult{
		{ID: "hw/a", Subsystem: "hw", Fault: "f", Expect: "e", Status: StatusPass},
		{ID: "hw/b", Subsystem: "hw", Fault: "f", Expect: "e", Status: StatusFail, Detail: "d"},
		{ID: "mk/a", Subsystem: "mk", Fault: "f", Expect: "e", Status: StatusSkip, Detail: "s"},
	}
	res := Report(results)
	if len(res.Tables) != 2 {
		t.Fatalf("report has %d tables, want 2", len(res.Tables))
	}
	if n := len(res.Tables[0].Rows); n != 3 {
		t.Errorf("matrix table has %d rows, want 3", n)
	}
	if n := len(res.Tables[1].Rows); n != 2 {
		t.Errorf("summary table has %d rows, want 2 (hw, mk)", n)
	}
	text := res.Text()
	for _, want := range []string{"hw/a", "scenario matrix", "rows by subsystem"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q", want)
		}
	}
}
