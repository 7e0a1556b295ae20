package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestRegistryHasAllExperiments pins the experiment table's contents and
// natural ordering: all thirteen experiments, e2 before e10.
func TestRegistryHasAllExperiments(t *testing.T) {
	want := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13"}
	specs := Specs()
	if len(specs) != len(want) {
		t.Fatalf("table holds %d experiments, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if s.ID != want[i] {
			t.Errorf("Specs()[%d] = %s, want %s", i, s.ID, want[i])
		}
		if _, ok := Lookup(s.ID); !ok {
			t.Errorf("Lookup(%s) missed a declared spec", s.ID)
		}
	}
	if _, ok := Lookup("e99"); ok {
		t.Error("Lookup invented an experiment")
	}
}

// checkSpecs returns the first declaration rule specs break. Each id is
// declared once, with a title and a Run. Each parameter has a name, help
// text, a unit and a positive Max, and its own Validate accepts its
// default. A parameter name several experiments share is one CLI flag, so
// its declarations must be identical.
func checkSpecs(specs []Spec) error {
	ids := map[string]bool{}
	params := map[string]Param{}
	for _, s := range specs {
		if s.ID == "" || s.Title == "" || s.Run == nil {
			return fmt.Errorf("spec %q: id, title and run are all required", s.ID)
		}
		if ids[s.ID] {
			return fmt.Errorf("experiment %s is declared twice", s.ID)
		}
		ids[s.ID] = true
		for _, p := range s.Params {
			if p.Name == "" || p.Help == "" || p.Unit == "" || p.Max <= 0 {
				return fmt.Errorf("%s: parameter %q needs a name, help, a unit and a positive Max", s.ID, p.Name)
			}
			if err := p.Validate(p.Default()); err != nil {
				return fmt.Errorf("%s: default rejected: %w", s.ID, err)
			}
			if q, ok := params[p.Name]; ok && !reflect.DeepEqual(p, q) {
				return fmt.Errorf("%s: parameter -%s is declared differently by another experiment", s.ID, p.Name)
			}
			params[p.Name] = p
		}
	}
	return nil
}

// TestSpecsWellFormed holds the experiment table to every declaration
// rule, and shows that checkSpecs refuses a table breaking each one.
func TestSpecsWellFormed(t *testing.T) {
	if err := checkSpecs(Specs()); err != nil {
		t.Fatal(err)
	}
	run := func(*Runner, Params) (*Result, error) { return nil, nil }
	n := Param{Name: "n", Kind: ParamInt, DefaultInt: 1, Max: 8, Unit: "ops", Help: "count"}
	spec := func(id string, mutate func(*Param)) Spec {
		p := n
		mutate(&p)
		return Spec{ID: id, Title: "t", Params: []Param{p}, Run: run}
	}
	same := func(*Param) {}
	cases := []struct {
		name  string
		specs []Spec
		want  string
	}{
		{"no run", []Spec{{ID: "x", Title: "t"}}, "run are all required"},
		{"duplicate id", []Spec{spec("x", same), spec("x", same)}, "declared twice"},
		{"unnamed parameter", []Spec{spec("x", func(p *Param) { p.Name = "" })}, "needs a name"},
		{"no help", []Spec{spec("x", func(p *Param) { p.Help = "" })}, "needs a name"},
		{"no unit", []Spec{spec("x", func(p *Param) { p.Unit = "" })}, "needs a name"},
		{"no bound", []Spec{spec("x", func(p *Param) { p.Max = 0 })}, "positive Max"},
		{"default above bound", []Spec{spec("x", func(p *Param) { p.DefaultInt = 9 })}, "default rejected"},
		{"empty default list", []Spec{spec("x", func(p *Param) { p.Kind = ParamIntList })}, "default rejected"},
		{"shared name differs", []Spec{spec("x", same), spec("y", func(p *Param) { p.Help = "other" })}, "declared differently"},
	}
	for _, c := range cases {
		if err := checkSpecs(c.specs); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestSharedValidatorRejectsNonPositive is the core half of the validation
// property: every declared parameter's Validate — the one validator the
// CLI and Normalize share — rejects zero and negative values, and list
// parameters reject empty lists and out-of-bound entries.
func TestSharedValidatorRejectsNonPositive(t *testing.T) {
	checked := 0
	for _, s := range Specs() {
		for _, p := range s.Params {
			checked++
			switch p.Kind {
			case ParamIntList:
				for _, bad := range [][]int{{0}, {2, -4}, {}} {
					if err := p.Validate(bad); err == nil {
						t.Errorf("%s -%s: accepted %v", s.ID, p.Name, bad)
					} else if !strings.Contains(err.Error(), p.Name) || !strings.Contains(err.Error(), "usage") {
						t.Errorf("%s -%s: error %q is not a usage error naming the flag", s.ID, p.Name, err)
					}
				}
				if p.Max > 0 {
					if err := p.Validate([]int{p.Max + 1}); err == nil {
						t.Errorf("%s -%s: accepted %d above Max %d", s.ID, p.Name, p.Max+1, p.Max)
					}
				}
				if _, err := p.Parse("two"); err == nil {
					t.Errorf("%s -%s: parsed garbage", s.ID, p.Name)
				}
				if _, err := p.Parse(","); err == nil {
					t.Errorf("%s -%s: parsed an empty list", s.ID, p.Name)
				}
			default:
				for _, bad := range []int{0, -5} {
					if err := p.Validate(bad); err == nil {
						t.Errorf("%s -%s: accepted %d", s.ID, p.Name, bad)
					} else if !strings.Contains(err.Error(), p.Name) || !strings.Contains(err.Error(), "usage") {
						t.Errorf("%s -%s: error %q is not a usage error naming the flag", s.ID, p.Name, err)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no parameters declared — property test is vacuous")
	}
}

// TestSpecNormalize checks default filling, the rejection of unknown names,
// zero values and flag text, and that neither the input map nor its lists
// are aliased.
func TestSpecNormalize(t *testing.T) {
	s, ok := Lookup("e11")
	if !ok {
		t.Fatal("e11 not declared")
	}
	np, err := s.Normalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Params{"frames": 96, "rounds": 4, "dirty": 48}); !reflect.DeepEqual(np, want) {
		t.Errorf("Normalize(nil) = %v, want the defaults %v", np, want)
	}

	in := Params{"frames": 32}
	np, err = s.Normalize(in)
	if err != nil {
		t.Fatal(err)
	}
	if np.Int("frames") != 32 {
		t.Errorf("param not kept: %v", np["frames"])
	}
	if np.Int("rounds") != 4 || np.Int("dirty") != 48 {
		t.Errorf("missing params not defaulted: %v", np)
	}
	if len(in) != 1 {
		t.Error("Normalize mutated its input")
	}

	if _, err := s.Normalize(Params{"frames": 0}); err == nil {
		t.Error("zero value survived Normalize")
	}
	if _, err := s.Normalize(Params{"bogus": 1}); err == nil {
		t.Error("unknown parameter name accepted")
	}
	// Flag text is Param.Parse's to turn into a typed value.
	if _, err := s.Normalize(Params{"frames": "32"}); err == nil || !strings.Contains(err.Error(), "usage: -frames") {
		t.Errorf("flag text: err = %v, want the usage error naming -frames", err)
	}

	s12, _ := Lookup("e12")
	shared := []int{1, 2}
	np, err = s12.Normalize(Params{"cpus": shared})
	if err != nil {
		t.Fatal(err)
	}
	np.IntList("cpus")[0] = 99
	if shared[0] != 1 {
		t.Error("Normalize aliased the caller's slice")
	}
}

// TestSpecsHandOutCopies: the declarations Specs, Lookup and FlagParams
// return share no memory with the experiment table, so editing one leaves
// every later Lookup and Normalize as it was.
func TestSpecsHandOutCopies(t *testing.T) {
	defaults := func(id string) Params {
		t.Helper()
		s, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not declared", id)
		}
		np, err := s.Normalize(nil)
		if err != nil {
			t.Fatal(err)
		}
		return np
	}
	e1, e12 := defaults("e1"), defaults("e12")
	s1, _ := Lookup("e1")
	packets := s1.Params[0].DefaultInt

	Specs()[0].Params[0].DefaultInt = 7
	s12, _ := Lookup("e12")
	s12.Params[0].DefaultList[0] = 99
	for _, p := range FlagParams() {
		if p.Kind == ParamIntList {
			p.DefaultList[0] = 99
		}
	}

	if got, _ := Lookup("e1"); got.Params[0].DefaultInt != packets {
		t.Errorf("Lookup(e1) declares default %d after edits to returned copies, want %d", got.Params[0].DefaultInt, packets)
	}
	if got := defaults("e1"); !reflect.DeepEqual(got, e1) {
		t.Errorf("e1 Normalize(nil) = %v after edits to returned copies, want %v", got, e1)
	}
	if got := defaults("e12"); !reflect.DeepEqual(got, e12) {
		t.Errorf("e12 Normalize(nil) = %v after edits to returned copies, want %v", got, e12)
	}
}

// TestRunExperimentStampsResult checks the uniform entry point: the Result
// carries the spec's id and title and echoes the normalized params.
func TestRunExperimentStampsResult(t *testing.T) {
	res, err := NewRunner(1).RunExperiment(context.Background(), "e3", Params{"syscalls": 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiment != "e3" || res.Title == "" {
		t.Errorf("unstamped result: %q %q", res.Experiment, res.Title)
	}
	if res.Params.Int("syscalls") != 40 {
		t.Errorf("params not echoed: %v", res.Params)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) == 0 {
		t.Fatalf("degenerate tables: %+v", res.Tables)
	}
	if _, err := NewRunner(1).RunExperiment(context.Background(), "e99", nil); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestRunExperimentHonorsContext: a pre-cancelled context must abort the
// run with context.Canceled instead of executing cells.
func TestRunExperimentHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewRunner(2).RunExperiment(ctx, "e1", Params{"packets": 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestResultJSONRoundTrip is the acceptance check for the machine-readable
// encoding: params, units and rows survive encoding/json intact, and the
// encoding is stable across runs.
func TestResultJSONRoundTrip(t *testing.T) {
	run := func() []byte {
		res, err := NewRunner(1).RunExperiment(context.Background(), "e3", Params{"syscalls": 40})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("JSON encoding not stable across identical runs")
	}

	var doc struct {
		Experiment string         `json:"experiment"`
		Title      string         `json:"title"`
		Params     map[string]any `json:"params"`
		Tables     []struct {
			Title   string `json:"title"`
			Columns []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			} `json:"columns"`
			Rows [][]any `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "e3" {
		t.Errorf("experiment = %q", doc.Experiment)
	}
	if got, ok := doc.Params["syscalls"].(float64); !ok || got != 40 {
		t.Errorf("params did not round-trip: %v", doc.Params)
	}
	if len(doc.Tables) != 1 {
		t.Fatalf("tables = %d", len(doc.Tables))
	}
	tb := doc.Tables[0]
	if len(tb.Rows) != 4 {
		t.Errorf("rows = %d, want the four syscall configurations", len(tb.Rows))
	}
	units := map[string]string{}
	for _, c := range tb.Columns {
		units[c.Name] = c.Unit
	}
	if units["cycles/syscall"] != "cycles" {
		t.Errorf("units did not round-trip: %v", units)
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Errorf("row width %d != %d columns", len(row), len(tb.Columns))
		}
		if _, ok := row[1].(float64); !ok {
			t.Errorf("numeric cell decoded as %T — numbers must stay numbers", row[1])
		}
	}
}

// TestE11DefaultsIdenticalForCLIAndAPI pins the sweep E11 derives from its
// parameters: at the declared defaults (96 pages, 4 rounds, 48 dirty
// pages) e11 runs dirty rates {0, 8, 48} x budgets {0, 1, 4}, and
// renders exactly what the CLI's default flags render. A
// peak dirty rate below 6 clamps the middle rate to one page.
func TestE11DefaultsIdenticalForCLIAndAPI(t *testing.T) {
	r := NewRunner(1)
	sweep := func(rows []E11Row) (rates, budgets []int) {
		for _, row := range rows {
			if !slices.Contains(rates, row.DirtyRate) {
				rates = append(rates, row.DirtyRate)
			}
			if !slices.Contains(budgets, row.Budget) {
				budgets = append(budgets, row.Budget)
			}
		}
		return rates, budgets
	}
	rows, err := r.e11(96, 4, 48)
	if err != nil {
		t.Fatal(err)
	}
	if rates, budgets := sweep(rows); len(rows) != 9 ||
		!reflect.DeepEqual(rates, []int{0, 8, 48}) || !reflect.DeepEqual(budgets, []int{0, 1, 4}) {
		t.Errorf("e11(96, 4, 48): %d rows over rates %v x budgets %v, want 9 over {0, 8, 48} x {0, 1, 4}",
			len(rows), rates, budgets)
	}
	res, err := r.RunExperiment(context.Background(), "e11", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Text(), e11Table(rows).String()+"\n"; got != want {
		t.Errorf("the CLI defaults and e11(96, 4, 48) diverge:\n%s\nvs\n%s", got, want)
	}
	// The clamp: a peak dirty rate below 6 still yields a positive middle
	// rate.
	rows, err = r.e11(8, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rates, _ := sweep(rows); !reflect.DeepEqual(rates, []int{0, 1, 4}) {
		t.Errorf("clamped dirty rates = %v, want [0 1 4]", rates)
	}
}

// TestTypedEntryPointsRefuseWhatTheRegistryRefuses: RunExperiment, each
// experiment's one entry point, refuses a zero value, or an empty list,
// for every parameter with the usage error naming the flag, before any
// cell runs. No experiment falls back to a default of its own.
func TestTypedEntryPointsRefuseWhatTheRegistryRefuses(t *testing.T) {
	r := NewRunner(1)
	cases := []struct {
		id, flag string
		zero     any
		want     string
	}{
		{"e1", "packets", 0, "usage: -packets must be positive (got 0)"},
		{"e3", "syscalls", 0, "usage: -syscalls must be positive (got 0)"},
		{"e4", "guests", 0, "usage: -guests must be positive (got 0)"},
		{"e7", "syscalls", 0, "usage: -syscalls must be positive (got 0)"},
		{"e8", "requests", 0, "usage: -requests must be positive (got 0)"},
		{"e10", "syscalls", 0, "usage: -syscalls must be positive (got 0)"},
		{"e11", "frames", 0, "usage: -frames must be positive (got 0)"},
		{"e11", "rounds", 0, "usage: -rounds must be positive (got 0)"},
		{"e11", "dirty", 0, "usage: -dirty must be positive (got 0)"},
		{"e12", "cpus", []int{}, "usage: -cpus needs at least one value"},
		{"e13", "fleet", []int{}, "usage: -fleet needs at least one value"},
		{"e13", "churn", []int{}, "usage: -churn needs at least one value"},
		{"e13", "hostframes", 0, "usage: -hostframes must be positive (got 0)"},
	}
	for _, c := range cases {
		_, err := r.RunExperiment(context.Background(), c.id, Params{c.flag: c.zero})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s with a zero -%s: err = %v, want %q", c.id, c.flag, err, c.want)
		}
	}
}

// TestFlagParamsOnePerName: the generated CLI flag surface has exactly one
// entry per parameter name, and shared parameters (the -syscalls flag E3,
// E7 and E10 all declare) agree on their shape.
func TestFlagParamsOnePerName(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range FlagParams() {
		if seen[p.Name] {
			t.Errorf("parameter -%s appears twice in FlagParams", p.Name)
		}
		seen[p.Name] = true
	}
	for _, name := range []string{"packets", "syscalls", "guests", "requests", "frames", "rounds", "dirty", "cpus"} {
		if !seen[name] {
			t.Errorf("expected flag -%s missing from the generated surface", name)
		}
	}
}

// TestRegistryMarkdownListsEverySpec: the generated docs table names every
// experiment and every flag.
func TestRegistryMarkdownListsEverySpec(t *testing.T) {
	md := RegistryMarkdown()
	for _, s := range Specs() {
		if !strings.Contains(md, "| "+s.ID+" |") {
			t.Errorf("markdown missing %s", s.ID)
		}
	}
	for _, p := range FlagParams() {
		if !strings.Contains(md, "`-"+p.Name+"`") {
			t.Errorf("markdown missing -%s", p.Name)
		}
	}
}
