package core

// spec.go is the declarative experiment registry — the single source of
// truth the CLI, the report harness and the benchmarks all generate from.
// Each experiment file declares its Spec (id, title, typed parameters) as
// a package variable, and the specs table lists them in id order; adding
// an experiment is one new file and one table entry, and the flag surface,
// validation, `list` output and the `all` sweep follow without touching
// cmd/vmmklab.

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ParamKind discriminates the value type of a Param.
type ParamKind int

// The supported parameter kinds.
const (
	// ParamInt is a single positive integer.
	ParamInt ParamKind = iota
	// ParamIntList is a comma-separated list of positive integers.
	ParamIntList
)

// Param declares one typed experiment parameter: its flag name, value kind,
// default, unit and bounds. Every experiment parameter must be positive —
// zero or negative values are usage errors, never silent clamps — and list
// parameters must be non-empty; Validate is the one validator the CLI, the
// registry and the tests all share.
type Param struct {
	// Name is the parameter (and CLI flag) name, e.g. "packets".
	Name string
	// Kind selects int or int-list semantics.
	Kind ParamKind
	// Help is the one-line flag description.
	Help string
	// Unit names the quantity for machine-readable output ("packets",
	// "pages", "cores", ...).
	Unit string
	// DefaultInt is the default for ParamInt parameters.
	DefaultInt int
	// DefaultList is the default for ParamIntList parameters.
	DefaultList []int
	// Max, when positive, bounds each value (list entries included).
	Max int
}

// Default returns the parameter's default value (an int or a fresh []int).
func (p Param) Default() any {
	if p.Kind == ParamIntList {
		return append([]int(nil), p.DefaultList...)
	}
	return p.DefaultInt
}

// DefaultString renders the default the way the CLI displays and re-parses
// it ("100", or "1,2,4,8" for lists).
func (p Param) DefaultString() string {
	if p.Kind == ParamIntList {
		parts := make([]string, len(p.DefaultList))
		for i, n := range p.DefaultList {
			parts[i] = strconv.Itoa(n)
		}
		return strings.Join(parts, ",")
	}
	return strconv.Itoa(p.DefaultInt)
}

// Parse converts flag text into a validated value of the parameter's kind.
// Errors are usage errors naming the offending flag.
func (p Param) Parse(s string) (any, error) {
	if p.Kind == ParamIntList {
		var out []int
		for _, part := range strings.Split(s, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			n, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("usage: -%s entries must be integers (got %q)", p.Name, part)
			}
			out = append(out, n)
		}
		if err := p.Validate(out); err != nil {
			return nil, err
		}
		return out, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return nil, fmt.Errorf("usage: -%s must be an integer (got %q)", p.Name, s)
	}
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	return n, nil
}

// Validate checks a typed value against the parameter's constraints: every
// value must be positive and, when Max is set, at most Max; lists need at
// least one entry. Errors are usage errors naming the offending flag.
func (p Param) Validate(v any) error {
	if p.Kind == ParamIntList {
		list, ok := v.([]int)
		if !ok {
			return fmt.Errorf("usage: -%s wants a comma-separated integer list (got %T)", p.Name, v)
		}
		if len(list) == 0 {
			return fmt.Errorf("usage: -%s needs at least one value", p.Name)
		}
		for _, n := range list {
			if n < 1 {
				return fmt.Errorf("usage: -%s entries must be positive (got %d)", p.Name, n)
			}
			if p.Max > 0 && n > p.Max {
				return fmt.Errorf("usage: -%s entries must be at most %d (got %d)", p.Name, p.Max, n)
			}
		}
		return nil
	}
	n, ok := v.(int)
	if !ok {
		return fmt.Errorf("usage: -%s wants an integer (got %T)", p.Name, v)
	}
	if n < 1 {
		return fmt.Errorf("usage: -%s must be positive (got %d)", p.Name, n)
	}
	if p.Max > 0 && n > p.Max {
		return fmt.Errorf("usage: -%s must be at most %d (got %d)", p.Name, p.Max, n)
	}
	return nil
}

// Params carries one experiment invocation's parameter values by name.
// Values are int or []int; flag text becomes a typed value through the
// declaring Param's Parse before it gets here.
type Params map[string]any

// Int returns the named int parameter, or 0 when absent.
func (ps Params) Int(name string) int {
	v, _ := ps[name].(int)
	return v
}

// IntList returns the named list parameter, or nil when absent.
func (ps Params) IntList(name string) []int {
	v, _ := ps[name].([]int)
	return v
}

// Spec declares one experiment: identifier, human title, typed parameters
// and the uniform entry point every experiment implements. The specs table
// lists every experiment's Spec.
type Spec struct {
	// ID is the experiment identifier ("e1" ... "e13").
	ID string
	// Title is the one-line description `list` and the report headers show.
	Title string
	// Params declares the experiment's parameters. Parameters shared
	// across experiments (one CLI flag) must be declared identically.
	Params []Param
	// Run executes the experiment on the given runner with normalized
	// parameters and returns its tables. RunExperiment stamps the Result
	// with the spec's id, title and the echoed params.
	Run func(r *Runner, p Params) (*Result, error)
}

// Param returns the declaration of the named parameter.
func (s Spec) Param(name string) (Param, bool) {
	for _, p := range s.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Normalize fills missing parameters with their defaults and validates
// everything through the shared validator; unknown parameter names and
// values of the wrong type are usage errors. The input map is not modified.
func (s Spec) Normalize(p Params) (Params, error) {
	// Sorted so the error names the alphabetically first unknown parameter,
	// not whichever one map iteration happened to visit first.
	for _, name := range sortedKeys(p) {
		if _, ok := s.Param(name); !ok {
			return nil, fmt.Errorf("usage: experiment %s has no parameter -%s", s.ID, name)
		}
	}
	out := make(Params, len(s.Params))
	for _, d := range s.Params {
		v, ok := p[d.Name]
		if !ok || v == nil {
			out[d.Name] = d.Default()
			continue
		}
		if err := d.Validate(v); err != nil {
			return nil, err
		}
		if list, isList := v.([]int); isList {
			v = append([]int(nil), list...)
		}
		out[d.Name] = v
	}
	return out, nil
}

// paramSyscalls is the iteration-count parameter E3, E7 and E10 share: one
// CLI flag, one default, one validator.
var paramSyscalls = Param{
	Name: "syscalls", Kind: ParamInt, DefaultInt: 200, Max: 1 << 20,
	Unit: "ops", Help: "iteration count for E3/E7/E10",
}

// specs is the experiment table, in id order.
var specs = []Spec{
	e1Spec, e2Spec, e3Spec, e4Spec, e5Spec, e6Spec, e7Spec,
	e8Spec, e9Spec, e10Spec, e11Spec, e12Spec, e13Spec,
}

// sortedKeys returns a map's keys in sorted order, for iteration whose
// visit order must be deterministic.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Specs returns every experiment in id order (e2 before e10). The specs
// are copies that share no memory with the experiment table, so a caller
// that edits one changes no later Lookup, Normalize or run.
func Specs() []Spec {
	out := make([]Spec, len(specs))
	for i, s := range specs {
		out[i] = s.clone()
	}
	return out
}

// Lookup returns a copy of the spec of experiment id, as Specs does.
func Lookup(id string) (Spec, bool) {
	s, ok := lookup(id)
	return s.clone(), ok
}

// lookup returns the table's own entry for experiment id.
func lookup(id string) (Spec, bool) {
	for _, s := range specs {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// clone returns s with its own Params slice and list defaults.
func (s Spec) clone() Spec {
	s.Params = slices.Clone(s.Params)
	for i := range s.Params {
		s.Params[i] = s.Params[i].clone()
	}
	return s
}

// clone returns p with its own list default.
func (p Param) clone() Param {
	p.DefaultList = slices.Clone(p.DefaultList)
	return p
}

// FlagParams returns the union of every declared parameter, one entry per
// name, in table order — what a data-driven CLI binds its flags from. Like
// Specs, it returns copies.
func FlagParams() []Param {
	seen := map[string]bool{}
	var out []Param
	for _, s := range specs {
		for _, p := range s.Params {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p.clone())
			}
		}
	}
	return out
}

// RunExperiment normalizes p against the experiment's spec, runs it on this
// runner and returns the Result stamped with the experiment's id, title and
// the echoed normalized parameters. A ctx that is already done returns its
// error before anything runs; a run that has started finishes. A nil Runner
// runs GOMAXPROCS-wide with no machine pool, so every cell boots fresh
// machines.
func (r *Runner) RunExperiment(ctx context.Context, id string, p Params) (*Result, error) {
	s, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (try 'list')", id)
	}
	np, err := s.Normalize(p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := s.Run(r, np)
	if err != nil {
		return nil, err
	}
	res.Experiment = s.ID
	res.Title = s.Title
	res.Params = np
	return res, nil
}

// RunAll runs every experiment at its defaults on this runner, writing each
// one's header line and text tables to w. Experiments run one after
// another; parallelism lives inside each, across its cells, so the tables
// stream out in their canonical order.
func (r *Runner) RunAll(w io.Writer) error {
	for _, s := range specs {
		res, err := r.RunExperiment(context.Background(), s.ID, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		if _, err := fmt.Fprintf(w, "== %s: %s ==\n%s", s.ID, s.Title, res.Text()); err != nil {
			return err
		}
	}
	return nil
}

// RegistryMarkdown renders the experiments and their parameters as the
// markdown table EXPERIMENTS.md embeds between its registry markers; the
// docs test pins the embedded copy to this output so the documentation can
// never drift from the registry.
func RegistryMarkdown() string {
	var b strings.Builder
	b.WriteString("| id | experiment | parameters |\n")
	b.WriteString("|----|------------|------------|\n")
	for _, s := range specs {
		var ps []string
		for _, p := range s.Params {
			unit := p.Unit
			if unit == "" {
				unit = "n"
			}
			ps = append(ps, fmt.Sprintf("`-%s` (%s, default `%s`)", p.Name, unit, p.DefaultString()))
		}
		cell := "—"
		if len(ps) > 0 {
			cell = strings.Join(ps, ", ")
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", s.ID, s.Title, cell)
	}
	return b.String()
}
