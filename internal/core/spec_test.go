package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestRegistryHasAllExperiments pins the registry's contents and natural
// ordering: all thirteen experiments, e2 before e10.
func TestRegistryHasAllExperiments(t *testing.T) {
	want := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13"}
	specs := Specs()
	if len(specs) != len(want) {
		t.Fatalf("registry holds %d experiments, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if s.ID != want[i] {
			t.Errorf("Specs()[%d] = %s, want %s", i, s.ID, want[i])
		}
		if s.Title == "" || s.Run == nil {
			t.Errorf("%s: degenerate spec", s.ID)
		}
		if _, ok := Lookup(s.ID); !ok {
			t.Errorf("Lookup(%s) missed a registered spec", s.ID)
		}
	}
	if _, ok := Lookup("e99"); ok {
		t.Error("Lookup invented an experiment")
	}
}

// TestSharedValidatorRejectsNonPositive is the core half of the validation
// property: every registered parameter's Validate — the one validator the
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
			if err := p.Validate(p.Default()); err != nil {
				t.Errorf("%s -%s: default rejected: %v", s.ID, p.Name, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no parameters registered — property test is vacuous")
	}
}

// TestSpecNormalize checks default filling, the rejection of unknown names,
// zero values and flag text, and that neither the input map nor its lists
// are aliased.
func TestSpecNormalize(t *testing.T) {
	s, ok := Lookup("e11")
	if !ok {
		t.Fatal("e11 not registered")
	}
	np, err := s.Normalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(np, s.Defaults()) {
		t.Errorf("Normalize(nil) = %v, want the defaults %v", np, s.Defaults())
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

// TestRegistryTextMatchesLegacyBuilders: the registry's entry point and the
// typed-row API (Runner.En, rendered through the experiment's table builder)
// must agree byte for byte — the in-package half of the byte-identity
// guarantee the CLI golden files pin end to end.
func TestRegistryTextMatchesLegacyBuilders(t *testing.T) {
	r := NewRunner(1)

	rows3, err := r.E3(40)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := r.RunExperiment(context.Background(), "e3", Params{"syscalls": 40})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res3.Text(), e3Table(rows3).String()+"\n"; got != want {
		t.Errorf("e3 registry text diverged from the typed rows:\n%s\nvs\n%s", got, want)
	}
	if got, want := res3.CSV(), e3Table(rows3).CSV(); got != want {
		t.Errorf("e3 registry CSV diverged from the typed rows:\n%s\nvs\n%s", got, want)
	}

	rows12, err := r.E12([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	res12, err := r.RunExperiment(context.Background(), "e12", Params{"cpus": []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res12.Text(), e12Table(rows12).String()+"\n"; got != want {
		t.Errorf("e12 registry text diverged from the typed rows:\n%s\nvs\n%s", got, want)
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
// pages) the typed entry point runs dirty rates {0, 8, 48} x budgets
// {0, 1, 4}, and renders exactly what the CLI's default flags render. A
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
	rows, err := r.E11(96, 4, 48)
	if err != nil {
		t.Fatal(err)
	}
	if rates, budgets := sweep(rows); len(rows) != 9 ||
		!reflect.DeepEqual(rates, []int{0, 8, 48}) || !reflect.DeepEqual(budgets, []int{0, 1, 4}) {
		t.Errorf("E11(96, 4, 48): %d rows over rates %v x budgets %v, want 9 over {0, 8, 48} x {0, 1, 4}",
			len(rows), rates, budgets)
	}
	res, err := r.RunExperiment(context.Background(), "e11", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Text(), e11Table(rows).String()+"\n"; got != want {
		t.Errorf("the CLI defaults and E11(96, 4, 48) diverge:\n%s\nvs\n%s", got, want)
	}
	// The clamp: a peak dirty rate below 6 still yields a positive middle
	// rate.
	rows, err = r.E11(8, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rates, _ := sweep(rows); !reflect.DeepEqual(rates, []int{0, 1, 4}) {
		t.Errorf("clamped dirty rates = %v, want [0 1 4]", rates)
	}
}

// TestTypedEntryPointsRefuseWhatTheRegistryRefuses: every typed entry
// point that takes a parameter refuses a zero value, or an empty list,
// with the registry's own usage error naming the flag. None of them falls
// back to a default of its own.
func TestTypedEntryPointsRefuseWhatTheRegistryRefuses(t *testing.T) {
	r := NewRunner(1)
	errOf := func(_ any, err error) error { return err }
	cases := []struct {
		id, flag string
		zero     any
		call     func() error
		want     string
	}{
		{"e1", "packets", 0, func() error { return errOf(r.E1(0)) }, "usage: -packets must be positive (got 0)"},
		{"e3", "syscalls", 0, func() error { return errOf(r.E3(0)) }, "usage: -syscalls must be positive (got 0)"},
		{"e4", "guests", 0, func() error { return errOf(r.E4(0)) }, "usage: -guests must be positive (got 0)"},
		{"e7", "syscalls", 0, func() error { return errOf(r.E7(0)) }, "usage: -syscalls must be positive (got 0)"},
		{"e8", "requests", 0, func() error { return errOf(r.E8(0)) }, "usage: -requests must be positive (got 0)"},
		{"e10", "syscalls", 0, func() error { return errOf(r.E10(0)) }, "usage: -syscalls must be positive (got 0)"},
		{"e11", "frames", 0, func() error { return errOf(r.E11(0, 4, 48)) }, "usage: -frames must be positive (got 0)"},
		{"e11", "rounds", 0, func() error { return errOf(r.E11(96, 0, 48)) }, "usage: -rounds must be positive (got 0)"},
		{"e11", "dirty", 0, func() error { return errOf(r.E11(96, 4, 0)) }, "usage: -dirty must be positive (got 0)"},
		{"e12", "cpus", []int{}, func() error { return errOf(r.E12(nil)) }, "usage: -cpus needs at least one value"},
		{"e13", "fleet", []int{}, func() error { return errOf(r.E13(nil, []int{24}, 192)) }, "usage: -fleet needs at least one value"},
		{"e13", "churn", []int{}, func() error { return errOf(r.E13([]int{2}, nil, 192)) }, "usage: -churn needs at least one value"},
		{"e13", "hostframes", 0, func() error { return errOf(r.E13([]int{2}, []int{24}, 0)) }, "usage: -hostframes must be positive (got 0)"},
	}
	for _, c := range cases {
		err := c.call()
		if err == nil || err.Error() != c.want {
			t.Errorf("%s with a zero -%s: err = %v, want %q", c.id, c.flag, err, c.want)
			continue
		}
		spec, _ := Lookup(c.id)
		if _, rerr := spec.Normalize(Params{c.flag: c.zero}); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s with a zero -%s: entry point says %q, registry says %v", c.id, c.flag, err, rerr)
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
