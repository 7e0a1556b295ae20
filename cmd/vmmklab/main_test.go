package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"vmmk/internal/core"
)

// update regenerates the golden files under testdata from the current
// output: go test ./cmd/vmmklab -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	return out, runErr
}

func TestListCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"list"}) })
	if err != nil {
		t.Fatal(err)
	}
	// Every registered experiment must appear — the list is generated, so
	// the check is against the registry, not a hand-kept id list.
	for _, s := range core.Specs() {
		if !strings.Contains(out, s.ID+" ") || !strings.Contains(out, s.Title) {
			t.Errorf("list output missing %s (%s)", s.ID, s.Title)
		}
	}
}

// TestFlagValidationRegistryDriven is the property test the registry makes
// possible: for EVERY registered parameter of EVERY experiment, zero and
// negative values must come back as usage errors naming the flag — never a
// panic, never a silently clamped run. List parameters additionally reject
// empty and garbage lists and entries above their bound. The cases are
// generated from core.Specs(), so a new experiment's parameters are covered
// the moment it registers.
func TestFlagValidationRegistryDriven(t *testing.T) {
	type tc struct {
		name string
		args []string
		flag string
	}
	var cases []tc
	add := func(spec core.Spec, p core.Param, bad string) {
		cases = append(cases, tc{
			name: spec.ID + " -" + p.Name + "=" + bad,
			args: []string{"-" + p.Name, bad, spec.ID},
			flag: p.Name,
		})
	}
	nparams := 0
	for _, spec := range core.Specs() {
		for _, p := range spec.Params {
			nparams++
			switch p.Kind {
			case core.ParamIntList:
				bads := []string{"0", "2,-4", "two", ","}
				if p.Max > 0 {
					bads = append(bads, strconv.Itoa(p.Max+1))
				}
				for _, b := range bads {
					add(spec, p, b)
				}
			default:
				for _, b := range []string{"0", "-5"} {
					add(spec, p, b)
				}
			}
			// Flags must be rejected after the experiment name too.
			cases = append(cases, tc{
				name: spec.ID + " -" + p.Name + " after name",
				args: []string{spec.ID, "-" + p.Name, "0"},
				flag: p.Name,
			})
		}
	}
	if nparams == 0 {
		t.Fatal("registry declares no parameters — property test is vacuous")
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := capture(t, func() error { return run(c.args) })
			if err == nil {
				t.Fatalf("run(%v) accepted an invalid parameter", c.args)
			}
			if !strings.Contains(err.Error(), c.flag) {
				t.Fatalf("error %q does not name the offending -%s flag", err, c.flag)
			}
			if !strings.Contains(err.Error(), "usage") {
				t.Fatalf("error %q is not a usage error", err)
			}
		})
	}
}

// goldenArgs returns the trimmed parameter flags each experiment's golden
// files were captured with (sized to keep the test fast).
func goldenArgs(id string) []string {
	switch id {
	case "e1":
		return []string{"-packets", "30"}
	case "e3", "e7", "e10":
		return []string{"-syscalls", "50"}
	case "e4":
		return []string{"-guests", "2"}
	case "e8":
		return []string{"-requests", "10"}
	case "e11":
		return []string{"-frames", "48", "-rounds", "2", "-dirty", "8"}
	case "e12":
		return []string{"-cpus", "1,2"}
	case "e13":
		return []string{"-fleet", "2,3", "-churn", "24", "-hostframes", "128"}
	}
	return nil
}

// checkGolden compares the CLI's output for args against the named golden
// file byte for byte (or rewrites the file under -update).
func checkGolden(t *testing.T, file string, args []string) {
	t.Helper()
	out, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("%s: output differs from golden\n--- got ---\n%s\n--- want ---\n%s", file, out, want)
	}
}

// TestGoldenTextAndCSV pins the text and CSV rendering of every registered
// experiment to the output captured from the pre-registry CLI: the
// api_redesign moved all twelve experiments onto core.Spec/core.Result
// without changing a byte of what users see.
func TestGoldenTextAndCSV(t *testing.T) {
	for _, spec := range core.Specs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			args := goldenArgs(spec.ID)
			checkGolden(t, spec.ID+".txt.golden", append([]string{spec.ID}, args...))
			checkGolden(t, spec.ID+".csv.golden", append([]string{"-csv", spec.ID}, args...))
		})
	}
}

// TestGoldenJSON pins the stable JSON encoding for a representative subset
// (a sweep, a fixed-configuration table, the SMP grid, and the fleet sweep).
func TestGoldenJSON(t *testing.T) {
	for _, id := range []string{"e1", "e3", "e12", "e13"} {
		id := id
		t.Run(id, func(t *testing.T) {
			checkGolden(t, id+".json.golden", append([]string{"-json", id}, goldenArgs(id)...))
		})
	}
}

// TestGoldenWideSweeps pins three sweeps wider than the trimmed goldens
// above, as text: E12 from 1 to 16 CPUs, E12 at hw.MaxCPUs (the longest
// ScheduleOn scan and the widest shootdown fan-out), and E13 on 16 hosts
// of 2^20 frames each. Each runs in about 10 ms.
func TestGoldenWideSweeps(t *testing.T) {
	checkGolden(t, "e12-cpus16.txt.golden", []string{"e12", "-cpus", "1,2,4,8,16"})
	checkGolden(t, "e12-cpus64.txt.golden", []string{"e12", "-cpus", "64"})
	checkGolden(t, "e13-fleet16.txt.golden", []string{"e13", "-fleet", "16", "-churn", "1024", "-hostframes", "1048576"})
}

// TestAllJSONParses is the sweep-level smoke: `vmmklab all -json` (with
// trimmed parameters) must emit one JSON document per registered
// experiment, each carrying the experiment id, the echoed params, and at
// least one table with columns and rows.
func TestAllJSONParses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	args := []string{"-packets", "20", "-syscalls", "40", "-guests", "2", "-requests", "10",
		"-frames", "48", "-rounds", "2", "-dirty", "8", "-cpus", "1,2",
		"-fleet", "2", "-churn", "24", "-hostframes", "128", "all", "-json"}
	out, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	type table struct {
		Title   string `json:"title"`
		Columns []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"columns"`
		Rows [][]any `json:"rows"`
	}
	type doc struct {
		Experiment string         `json:"experiment"`
		Title      string         `json:"title"`
		Params     map[string]any `json:"params"`
		Tables     []table        `json:"tables"`
	}
	dec := json.NewDecoder(strings.NewReader(out))
	var seen []string
	for dec.More() {
		var d doc
		if err := dec.Decode(&d); err != nil {
			t.Fatalf("invalid JSON document after %v: %v", seen, err)
		}
		if d.Experiment == "" || d.Title == "" || len(d.Tables) == 0 {
			t.Fatalf("degenerate document: %+v", d)
		}
		for _, tb := range d.Tables {
			if len(tb.Columns) == 0 || len(tb.Rows) == 0 {
				t.Errorf("%s: table %q has no columns or rows", d.Experiment, tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Errorf("%s: row width %d != %d columns", d.Experiment, len(row), len(tb.Columns))
				}
			}
		}
		seen = append(seen, d.Experiment)
	}
	if len(seen) != len(core.Specs()) {
		t.Fatalf("decoded %d documents (%v), want %d", len(seen), seen, len(core.Specs()))
	}
}

func TestCSVAndJSONMutuallyExclusive(t *testing.T) {
	_, err := capture(t, func() error { return run([]string{"-csv", "-json", "e5"}) })
	if err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("want usage error for -csv -json, got %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"e99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestBareDashTerminates: a lone "-" is a non-flag argument to the flag
// package; the interleaved-flag parse loop must treat it as an (invalid)
// experiment name rather than spinning forever on it.
func TestBareDashTerminates(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run([]string{"e7", "-"}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("bare '-' accepted as an experiment")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run([e7 -]) hung instead of rejecting the bare '-'")
	}
}

// TestDoubleDashEndsFlags: everything after a standalone "--" is
// positional, even when it looks like a flag — the flag package's
// convention must survive the interleaved parse loop.
func TestDoubleDashEndsFlags(t *testing.T) {
	err := run([]string{"--", "-csv"})
	if err == nil {
		t.Fatal("'-csv' after '--' was not treated as a positional")
	}
	if !strings.Contains(err.Error(), "unknown experiment") || !strings.Contains(err.Error(), "-csv") {
		t.Fatalf("want unknown-experiment error naming -csv, got %v", err)
	}
}

func TestNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("empty invocation accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-syscalls", "50", "e3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "glibc TLS") || !strings.Contains(out, "== e3:") {
		t.Fatalf("e3 output malformed:\n%s", out)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-guests", "2", "e4", "e5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== e4:") || !strings.Contains(out, "== e5:") {
		t.Fatalf("missing experiment headers:\n%s", out)
	}
}

func TestAllCheapExperimentsThroughCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments")
	}
	out, err := capture(t, func() error {
		return run([]string{"-syscalls", "40", "-requests", "10", "-packets", "20",
			"-frames", "48", "-rounds", "2", "-dirty", "8",
			"e1", "e2", "e6", "e7", "e8", "e9", "e10", "e11"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e1", "e2", "e6", "e7", "e8", "e9", "e10", "e11"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Errorf("missing %s output", id)
		}
	}
}

// TestE11FlagsAndDeterminism runs the migration sweep through the CLI at
// two worker widths and requires byte-identical tables with the expected
// modes present.
func TestE11FlagsAndDeterminism(t *testing.T) {
	args := func(parallel string) []string {
		return []string{"-parallel", parallel, "-frames", "48", "-rounds", "2", "-dirty", "8", "e11"}
	}
	serial, err := capture(t, func() error { return run(args("1")) })
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := capture(t, func() error { return run(args("4")) })
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Fatalf("-parallel changed the E11 table:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	for _, want := range []string{"== e11:", "stop&copy", "pre-copy", "downtime cyc"} {
		if !strings.Contains(serial, want) {
			t.Errorf("e11 output missing %q:\n%s", want, serial)
		}
	}
}

// TestE12FlagsAndDeterminism runs the SMP sweep through the CLI — with the
// flags after the experiment name, the way the docs show it — at two
// worker widths and requires byte-identical tables with the expected
// workloads present.
func TestE12FlagsAndDeterminism(t *testing.T) {
	args := func(parallel string) []string {
		return []string{"e12", "-cpus", "1,2", "-parallel", parallel}
	}
	serial, err := capture(t, func() error { return run(args("1")) })
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := capture(t, func() error { return run(args("4")) })
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Fatalf("-parallel changed the E12 table:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	for _, want := range []string{"== e12:", "ipc-pingpong", "dirty-scan", "driver-io", "shootdowns"} {
		if !strings.Contains(serial, want) {
			t.Errorf("e12 output missing %q:\n%s", want, serial)
		}
	}
}

// TestParallelFlagDeterministic runs the same experiment serially and on a
// four-worker pool through the CLI and requires identical output — the
// user-visible face of the engine's determinism guarantee.
func TestParallelFlagDeterministic(t *testing.T) {
	serial, err := capture(t, func() error {
		return run([]string{"-parallel", "1", "-syscalls", "50", "e3", "e7"})
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := capture(t, func() error {
		return run([]string{"-parallel", "4", "-syscalls", "50", "e3", "e7"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Fatalf("-parallel changed the tables:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

func TestCSVOutput(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-csv", "e5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "platform,count,security mechanisms,primitives") {
		t.Fatalf("no CSV header in:\n%s", out)
	}
}

// TestGoldenScenarios pins the scenarios subcommand's three output shapes:
// the full matrix run as text and JSON, and the declaration listing. The
// matrix is all-pass and deterministic, so the run output is stable.
func TestGoldenScenarios(t *testing.T) {
	checkGolden(t, "scenarios.txt.golden", []string{"scenarios", "-parallel", "4"})
	checkGolden(t, "scenarios.json.golden", []string{"-json", "scenarios", "-parallel", "4"})
	checkGolden(t, "scenarios-list.txt.golden", []string{"scenarios", "list"})
}

// TestScenariosSubset runs a subset via -run and checks only those rows
// appear, in the order requested.
func TestScenariosSubset(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"scenarios", "-run", "mk/ipc-dead-partner,hw/alloc-beyond-physmem"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mk/ipc-dead-partner") || !strings.Contains(out, "hw/alloc-beyond-physmem") {
		t.Fatalf("subset output missing requested rows:\n%s", out)
	}
	if strings.Contains(out, "fslite/") {
		t.Fatalf("subset output contains unrequested rows:\n%s", out)
	}
	if strings.Index(out, "mk/ipc-dead-partner") > strings.Index(out, "hw/alloc-beyond-physmem") {
		t.Fatal("subset rows not in requested order")
	}
}

// TestScenariosUnknownID: asking for a row the matrix does not declare is a
// usage error, not an empty run.
func TestScenariosUnknownID(t *testing.T) {
	_, err := capture(t, func() error {
		return run([]string{"scenarios", "-run", "vmm/no-such-row"})
	})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("err = %v, want unknown-scenario error", err)
	}
}

// TestScenariosUnknownArgument: stray positionals after `scenarios` are
// rejected rather than silently ignored.
func TestScenariosUnknownArgument(t *testing.T) {
	_, err := capture(t, func() error { return run([]string{"scenarios", "bogus"}) })
	if err == nil || !strings.Contains(err.Error(), "unknown scenarios argument") {
		t.Fatalf("err = %v, want unknown-argument error", err)
	}
}

// TestScenarioFlagsRefusedElsewhere: -run and -shuffle select scenario
// rows, so an experiment run and `scenarios list`, which take neither,
// refuse them with a usage error instead of ignoring them.
func TestScenarioFlagsRefusedElsewhere(t *testing.T) {
	for _, args := range [][]string{
		{"e4", "-shuffle", "7"},
		{"e4", "-run", "hw/x"},
		{"scenarios", "list", "-run", "hw/alloc-beyond-physmem"},
		{"scenarios", "list", "-shuffle", "7"},
	} {
		out, err := capture(t, func() error { return run(args) })
		if err == nil || !strings.Contains(err.Error(), "usage") {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
		if out != "" {
			t.Errorf("%v printed output before refusing:\n%s", args, out)
		}
	}
}
