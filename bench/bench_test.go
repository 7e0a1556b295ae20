package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmmk/internal/core"
	"vmmk/internal/lint"
)

func readBenchmarkFile(t *testing.T) *BenchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f BenchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// TestSmoke runs every workload at 1/1000 of its ops in-process, then one
// traced rep of each (at least one epoch, so every span kind occurs) and the
// probes, and checks that nothing fails and that every metric BENCHMARK.json
// names is emitted with its unit.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var got []string
	for _, w := range Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(got, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, got)
	}

	rec := &Record{Seed: 1, Reps: repsPerSet}
	untraced := &Set{Workloads: map[string]*Result{}}
	traced := &Set{Traced: true, Workloads: map[string]*Result{}}
	dir := t.TempDir()
	for _, w := range Workloads {
		var reps []*Rep
		for k := 0; k < repsPerSet; k++ {
			r, err := RunRep(RepConfig{Workload: w.Name, Seed: 1, Ops: max(w.Ops/1000, 1)}, now())
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, r)
		}
		untraced.Workloads[w.Name] = aggregate(reps)
		r, err := RunRep(RepConfig{Workload: w.Name, Seed: 1, Ops: max(w.Ops/1000, w.EpochOps, 1), TraceDir: dir}, now())
		if err != nil {
			t.Fatal(err)
		}
		traced.Workloads[w.Name] = aggregate([]*Rep{r})
		if _, err := os.Stat(filepath.Join(dir, w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
		for _, res := range []*Result{untraced.Workloads[w.Name], traced.Workloads[w.Name]} {
			if ff := res.EndToEnd[failFrac.name]; ff != 0 {
				t.Errorf("%s: fail_frac %g", w.Name, ff)
			}
			for _, r := range res.Reps {
				for _, e := range r.Errors {
					t.Errorf("%s: %s", w.Name, e)
				}
			}
		}
	}
	rec.Sets = []*Set{untraced}
	var all []string
	for _, w := range Workloads {
		all = append(all, w.Name)
	}
	emitted := map[string]string{}
	for name, v := range rec.summary(all).Metrics {
		emitted[name[strings.Index(name, "/")+1:]] = v.Unit
	}
	for _, m := range bf.EndToEnd {
		if u, ok := emitted[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %s: emitted with unit %q (present %v), BENCHMARK.json says %q", m.Name, u, ok, m.Unit)
		}
	}

	pr, failed, errs := Probes()
	if failed > 0 {
		t.Errorf("probes failed: %v", errs)
	}
	rec.Sets = append(rec.Sets, traced)
	rec.Probes = pr
	rec.addOverhead()
	sum := rec.summary([]string{"io"})
	for _, m := range bf.PerLayer {
		v, ok := sum.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("per-layer metric %s not emitted", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("per-layer metric %s: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("per-layer metric %s = %v", m.Name, v.Value)
		}
	}
	if len(sum.Metrics) != len(bf.PerLayer) {
		t.Errorf("traced summary has %d metrics, BENCHMARK.json lists %d", len(sum.Metrics), len(bf.PerLayer))
	}
}

// TestPercentileRefusesThinTail pins the tail rule: a p95 needs at least
// minTail samples beyond it, and a set too small for one says so.
func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	n := minTail * 20 // the fewest samples whose p95 has minTail beyond it
	if _, err := tail(seq(n-1), 95); err == nil {
		t.Errorf("p95 of %d samples reported", n-1)
	}
	if v, err := tail(seq(n), 95); err != nil || v != 190 {
		t.Errorf("p95 of %d samples = %v, %v; want 190", n, v, err)
	}
	res := aggregate([]*Rep{{Ops: 3, WallS: 1, LatNS: []int64{1000, 2000, 3000}}})
	if _, ok := res.EndToEnd["op_us_p95"]; ok || len(res.Notes) == 0 {
		t.Errorf("3 samples reported a p95 (notes %v)", res.Notes)
	}
	if res.EndToEnd["op_us_p50"] != 2 {
		t.Errorf("p50 = %v µs, want 2", res.EndToEnd["op_us_p50"])
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, new []float64
		lower    bool
		want     string
	}{
		{"within bound", []float64{100, 101, 99}, []float64{104, 105, 103}, true, "unchanged"},
		{"beyond bound", []float64{100, 101, 99}, []float64{115, 116, 114}, true, "worse"},
		{"higher is better", []float64{100, 101, 99}, []float64{85, 86, 84}, false, "worse"},
		{"every run better", []float64{100, 101, 99}, []float64{95, 96, 94}, true, "better"},
		{"noisy", []float64{70, 100, 130}, []float64{90, 120, 140}, true, "unresolved"},
		{"single values", []float64{100}, []float64{95}, true, "unchanged"},
	} {
		if _, got := verdict(c.old, c.new, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareSetupSlack pins setup_s's absolute slack: a rise beyond its
// share bound is worse only when it also exceeds setupSlack.
func TestCompareSetupSlack(t *testing.T) {
	rec := func(vs ...float64) *Record {
		r := &Record{}
		for _, v := range vs {
			r.Sets = append(r.Sets, &Set{Workloads: map[string]*Result{
				"io": {EndToEnd: map[string]float64{"setup_s": v}}}})
		}
		return r
	}
	bf := &BenchmarkFile{EndToEnd: []bound{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	for _, c := range []struct {
		old, new []float64
		worse    int
	}{
		{[]float64{0.020, 0.021, 0.019}, []float64{0.030, 0.031, 0.029}, 0},
		{[]float64{0.200, 0.201, 0.199}, []float64{0.300, 0.301, 0.299}, 1},
	} {
		var out strings.Builder
		if got := Compare(rec(c.old...), rec(c.new...), bf, &out); got != c.worse {
			t.Errorf("setup_s %v -> %v: %d worse rows, want %d\n%s", c.old, c.new, got, c.worse, out.String())
		}
	}
}

// goldenParams are the parameters cmd/vmmklab's golden files were
// captured with (its goldenArgs).
var goldenParams = map[string]core.Params{
	"e1":  {"packets": 30},
	"e3":  {"syscalls": 50},
	"e4":  {"guests": 2},
	"e7":  {"syscalls": 50},
	"e8":  {"requests": 10},
	"e10": {"syscalls": 50},
	"e11": {"frames": 48, "rounds": 2, "dirty": 8},
	"e12": {"cpus": []int{1, 2}},
	"e13": {"fleet": []int{2, 3}, "churn": []int{24}, "hostframes": 128},
}

// TestSweepMatchesGoldens ties the sweep's oracle to the repository's
// goldens: the text the sweep op digests is, at the golden parameters,
// exactly the body of each experiment's cmd/vmmklab golden file.
func TestSweepMatchesGoldens(t *testing.T) {
	r := core.NewRunner(1)
	for _, s := range core.Specs() {
		golden, err := os.ReadFile(filepath.Join("..", "cmd", "vmmklab", "testdata", s.ID+".txt.golden"))
		if err != nil {
			t.Fatal(err)
		}
		_, body, _ := strings.Cut(string(golden), "\n")
		txt, err := experimentText(r, s.ID, goldenParams[s.ID])
		if err != nil {
			t.Fatal(err)
		}
		if txt != body {
			t.Errorf("%s: sweep text differs from %s.txt.golden", s.ID, s.ID)
		}
	}
}

// TestVmmklintClean holds the benchmark to the repository's analyzers:
// clean, with the wall-clock helper as the one sanctioned exception.
func TestVmmklintClean(t *testing.T) {
	pkgs, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(lint.All(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	ignores := 0
	for _, p := range pkgs {
		for _, f := range p.GoFiles {
			b, err := os.ReadFile(filepath.Join(p.Dir, f))
			if err != nil {
				t.Fatal(err)
			}
			ignores += strings.Count(string(b), "//vmmklint:ignore")
		}
	}
	if ignores != 1 {
		t.Errorf("%d vmmklint:ignore directives, want exactly the one on now()", ignores)
	}
}
