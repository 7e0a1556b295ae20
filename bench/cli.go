package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// tracedShare is the fraction of a workload's op count its traced rep runs.
const tracedShare = 4

// Main is the vmmkbench command; it returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	start := now()
	fs := flag.NewFlagSet("vmmkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Uint64("seed", 1, "input seed; every rep of the run uses it")
	traceDir := fs.String("trace", "", "also run one traced rep per workload and the probes, writing Chrome trace-event JSON to this directory")
	sets := fs.Int("sets", 1, "untraced sets to run")
	jsonOut := fs.Bool("json", false, "print the whole run record as JSON on stdout (the report goes to stderr)")
	commit := fs.String("commit", "", "commit id stored in the -json record")
	compare := fs.Bool("compare", false, "compare two run records: -compare OLD.json NEW.json (one file: its first two untraced sets)")
	update := fs.Bool("update", false, "regenerate the correctness oracle in ./testdata (run from bench/) from the current simulator")
	child := fs.String("child", "", "internal: run one rep (a JSON RepConfig) or the probes (\"probes\") in this process")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vmmkbench [-workload name] [-seed n] [-trace dir] [-sets n] [-json]\n"+
			"       vmmkbench -compare OLD.json [NEW.json]\n       vmmkbench -update\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "vmmkbench:", err)
		return 1
	}
	switch {
	case *child != "":
		if err := runChild(*child, start, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		n, err := runCompare(fs.Args(), stdout)
		if err != nil {
			return fail(err)
		}
		if n > 0 {
			return 1
		}
		return 0
	case *update:
		if err := Update("testdata"); err != nil {
			return fail(err)
		}
		return 0
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	if *sets < 1 {
		return fail(fmt.Errorf("-sets must be at least 1"))
	}
	selected := Workloads
	if *workload != "" {
		w, err := lookup(*workload)
		if err != nil {
			return fail(err)
		}
		selected = []*Workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	rec := &Record{Commit: *commit, Seed: *seed, Reps: repsPerSet}
	if *jsonOut {
		rec.Host = hostInfo()
	}
	run(exe, rec, selected, *sets, *traceDir, stderr)

	report := stdout
	if *jsonOut {
		report = stderr
	}
	var names []string
	for _, w := range selected {
		names = append(names, w.Name)
	}
	printRecord(report, rec, names)
	sum := rec.summary(names)
	if *jsonOut {
		b, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		b, err := json.Marshal(sum)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(b))
	}
	if !sum.Correct {
		return 1
	}
	return 0
}

// run executes the record's sets: untraced reps round-robin over the
// selected workloads, then, with a trace directory, one traced rep of every
// workload and the probes. Every rep is a fresh child process.
func run(exe string, rec *Record, selected []*Workload, sets int, traceDir string, stderr io.Writer) {
	errorf := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		rec.Errors = append(rec.Errors, msg)
		fmt.Fprintln(stderr, "vmmkbench:", msg)
	}
	account := func(reps []*Rep) {
		for _, r := range reps {
			rec.Attempted += r.Ops
			rec.Failed += r.Failed
			for _, e := range r.Errors {
				errorf("%s: %s", r.Workload, e)
			}
		}
	}
	// rep runs one child rep; a rep that dies counts as one failed op.
	rep := func(cfg RepConfig) *Rep {
		b, _ := json.Marshal(cfg)
		var r Rep
		if err := spawn(exe, string(b), stderr, &r); err != nil {
			rec.Attempted++
			rec.Failed++
			errorf("%s rep: %v", cfg.Workload, err)
			return nil
		}
		return &r
	}
	for s := 0; s < sets; s++ {
		reps := map[string][]*Rep{}
		for k := 0; k < repsPerSet; k++ {
			for _, w := range selected {
				if r := rep(RepConfig{Workload: w.Name, Seed: rec.Seed, Rep: k, Ops: w.Ops}); r != nil {
					reps[w.Name] = append(reps[w.Name], r)
				}
			}
		}
		set := &Set{Workloads: map[string]*Result{}}
		for _, w := range selected {
			account(reps[w.Name])
			if len(reps[w.Name]) > 0 {
				set.Workloads[w.Name] = aggregate(reps[w.Name])
			}
		}
		rec.Sets = append(rec.Sets, set)
	}
	if traceDir == "" {
		return
	}
	set := &Set{Traced: true, Workloads: map[string]*Result{}}
	for _, w := range Workloads {
		r := rep(RepConfig{Workload: w.Name, Seed: rec.Seed, Ops: max(w.Ops/tracedShare, 1), TraceDir: traceDir})
		if r != nil {
			account([]*Rep{r})
			set.Workloads[w.Name] = aggregate([]*Rep{r})
		}
	}
	rec.Sets = append(rec.Sets, set)
	var pr probeReport
	rec.Attempted += len(probes)
	if err := spawn(exe, "probes", stderr, &pr); err != nil {
		rec.Failed += len(probes)
		errorf("probes: %v", err)
	} else {
		rec.Probes = pr.Metrics
		rec.Failed += pr.Failed
		for _, e := range pr.Errors {
			errorf("probe %s", e)
		}
	}
	rec.addOverhead()
}

// probeReport is the probes child's output.
type probeReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Failed  int                `json:"failed"`
	Errors  []string           `json:"errors,omitempty"`
}

// spawn runs this executable as a child with -child arg, waits for it, and
// decodes its JSON output into v.
func spawn(exe, arg string, stderr io.Writer, v any) error {
	cmd := exec.Command(exe, "-child", arg)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return err
	}
	return json.Unmarshal(out, v)
}

// runChild is the child side of spawn.
func runChild(arg string, start time.Time, stdout io.Writer) error {
	var v any
	if arg == "probes" {
		var pr probeReport
		pr.Metrics, pr.Failed, pr.Errors = Probes()
		v = pr
	} else {
		var cfg RepConfig
		if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
			return fmt.Errorf("-child: %w", err)
		}
		r, err := RunRep(cfg, start)
		if err != nil {
			return err
		}
		v = r
	}
	return json.NewEncoder(stdout).Encode(v)
}

// runCompare loads one or two records and prints the comparison.
func runCompare(files []string, stdout io.Writer) (int, error) {
	if len(files) < 1 || len(files) > 2 {
		return 0, fmt.Errorf("-compare takes OLD.json [NEW.json]")
	}
	bf, err := findBenchmarkFile()
	if err != nil {
		return 0, err
	}
	var recs []*Record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		var r Record
		if err := json.Unmarshal(b, &r); err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, &r)
	}
	return Compare(recs[0], recs[len(recs)-1], bf, stdout), nil
}

// printRecord writes the human-readable report: every metric by name with
// its unit.
func printRecord(w io.Writer, rec *Record, selected []string) {
	fmt.Fprintf(w, "vmmkbench: seed %d, %d reps per workload\n", rec.Seed, rec.Reps)
	for i, set := range rec.Sets {
		if set.Traced {
			fmt.Fprintf(w, "\ntraced set (one rep per workload at 1/%d of its ops)\n", tracedShare)
		} else {
			fmt.Fprintf(w, "\nset %d\n", i+1)
		}
		for _, wl := range Workloads {
			r, ok := set.Workloads[wl.Name]
			if !ok {
				continue
			}
			for _, m := range append(endToEnd, failFrac) {
				if v, ok := r.EndToEnd[m.name]; ok {
					extra := ""
					if strings.HasPrefix(m.name, "op_us_p") {
						extra = fmt.Sprintf("  (%d samples)", r.Samples)
					}
					fmt.Fprintf(w, "  %-7s %-34s %14s %s%s\n", wl.Name, m.name, num(v), m.unit, extra)
				}
			}
			if r.CalUS > 0 {
				fmt.Fprintf(w, "  %-7s %-34s %14s us  (timings scaled to %s us)\n", wl.Name, "calibration kernel",
					num(r.CalUS), num(calNominal.Seconds()*1e6))
			}
			for _, name := range sortedKeys(r.Layer) {
				fmt.Fprintf(w, "  %-7s %-34s %14s %s\n", wl.Name, name, num(r.Layer[name]), layerUnit(name))
			}
			for _, name := range sortedKeys(r.SelfUS) {
				fmt.Fprintf(w, "  %-7s %-34s %14s us\n", wl.Name, "self."+name, num(r.SelfUS[name]))
			}
			for _, n := range r.Notes {
				fmt.Fprintf(w, "  %-7s note: %s\n", wl.Name, n)
			}
		}
	}
	if len(rec.Probes) > 0 {
		fmt.Fprintf(w, "\nprobes\n")
		for _, name := range sortedKeys(rec.Probes) {
			fmt.Fprintf(w, "  %-42s %14s %s\n", name, num(rec.Probes[name]), layerUnit(name))
		}
	}
	fmt.Fprintf(w, "\nattempted %d ops, %d failed\n", rec.Attempted, rec.Failed)
}

// num formats a metric value with five significant digits.
func num(v float64) string { return fmt.Sprintf("%.5g", v) }
