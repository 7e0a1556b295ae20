package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	name, unit  string
	lowerBetter bool
}

// endToEnd lists the end-to-end metrics every workload reports, in report
// order. Their bounds live in BENCHMARK.json at the repository root.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", false},
	{"op_us_p50", "us", true},
	{"op_us_p95", "us", true},
	{"setup_s", "s", true},
	{"alloc_kb_per_op", "KiB/op", true},
	{"allocs_per_op", "allocs/op", true},
	{"rss_peak_mb", "MiB", true},
}

// failFrac is reported beside the end-to-end metrics; any rise above zero
// is a regression, so it has no bound.
var failFrac = metricDef{"fail_frac", "ratio", true}

// counterUnits gives the unit of each per-layer counter by the part of its
// name after the layer.
var counterUnits = map[string]string{
	"sim_cycles_per_op":         "cycles/op",
	"ipc_equiv_per_op":          "count/op",
	"frames_lost_per_kop":       "frames/kop",
	"migrations_per_kevent":     "count/kevent",
	"reject_frac":               "ratio",
	"squeezed_pages_per_kevent": "pages/kevent",
	"downtime_p99_cycles":       "cycles",
	"log_bytes_per_event":       "B/event",
	"rows":                      "count",
	"gc_cpu_frac":               "ratio",
	"gc_per_kop":                "count/kop",
}

// overheadMetric is the traced op_us_p50 against the untraced one.
const overheadMetric = "trace_overhead_pct"

// layerUnit returns the unit of a per-layer metric.
func layerUnit(name string) string {
	if name == overheadMetric {
		return "%"
	}
	for _, u := range []string{"ms", "us", "ns"} {
		if strings.HasSuffix(name, "_"+u) {
			return u
		}
	}
	return counterUnits[name[strings.LastIndex(name, ".")+1:]]
}

// workloadScoped reports whether a per-layer metric describes the workload
// that ran rather than one layer: each workload reports its own.
func workloadScoped(name string) bool {
	return name == overheadMetric || strings.HasPrefix(name, "go.")
}

// Record is one vmmkbench invocation: its sets of reps and their metrics.
type Record struct {
	Host      *Host              `json:"host,omitempty"`
	Commit    string             `json:"commit,omitempty"`
	Seed      uint64             `json:"seed"`
	Reps      int                `json:"reps"`
	Sets      []*Set             `json:"sets"`
	Probes    map[string]float64 `json:"probes,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

// Set is one pass over the selected workloads: untraced reps, or one
// traced rep per workload.
type Set struct {
	Traced    bool               `json:"traced"`
	Workloads map[string]*Result `json:"workloads"`
}

// Result aggregates one workload's reps in a set.
type Result struct {
	EndToEnd map[string]float64 `json:"end_to_end"`
	Layer    map[string]float64 `json:"layer,omitempty"`
	SelfUS   map[string]float64 `json:"self_us,omitempty"`
	// Samples is the pooled latency sample count behind the percentiles.
	Samples int `json:"samples"`
	// CalUS is the reps' median calibration kernel time: how fast the host
	// ran, against calNominal.
	CalUS float64  `json:"cal_us"`
	Notes []string `json:"notes,omitempty"`
	Reps  []*Rep   `json:"reps"`
}

// Host records where a run was measured: ns/op means nothing without it.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func hostInfo() *Host {
	h := &Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OS: runtime.GOOS + "/" + runtime.GOARCH, CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// aggregate folds a workload's reps into its set result. Every timing is
// first scaled to the nominal host by its rep's calibration (calib.go).
// Latency percentiles pool every rep's samples and allocation counts pool
// every rep's ops, since each rep runs its own stretch of the inputs; the
// other metrics are medians across reps. The raw samples are dropped
// afterwards.
func aggregate(reps []*Rep) *Result {
	res := &Result{EndToEnd: map[string]float64{}, Layer: map[string]float64{}, Reps: reps}
	var lat, cal []float64
	per := map[string][]float64{}
	ops, failed := 0, 0
	var allocBytes, mallocs uint64
	for _, r := range reps {
		ops += r.Ops
		failed += r.Failed
		allocBytes += r.AllocBytes
		mallocs += r.Mallocs
		s := hostScale(r.CalUS)
		for _, ns := range r.LatNS {
			lat = append(lat, float64(ns)/1e3*s)
		}
		r.LatNS = nil
		if r.Ops == 0 {
			continue
		}
		n := float64(r.Ops)
		cal = append(cal, r.CalUS)
		per["ops_per_s"] = append(per["ops_per_s"], n/(r.WallS*s))
		per["setup_s"] = append(per["setup_s"], r.SetupS*s)
		per["rss_peak_mb"] = append(per["rss_peak_mb"], r.RSSPeakMB)
		per["go.gc_cpu_frac"] = append(per["go.gc_cpu_frac"], r.GCCPUFrac)
		per["go.gc_per_kop"] = append(per["go.gc_per_kop"], float64(r.GCCycles)*1000/n)
		for _, name := range sortedKeys(r.Layer) {
			per[name] = append(per[name], r.Layer[name])
		}
		if r.SelfUS != nil {
			res.SelfUS = r.SelfUS // a traced set has one rep per workload
		}
	}
	// Per-layer names carry their layer ("vmm.rx_us"); end-to-end names
	// have no dot.
	for name, vs := range per {
		if strings.Contains(name, ".") {
			res.Layer[name] = median(vs)
		} else {
			res.EndToEnd[name] = median(vs)
		}
	}
	if ops > 0 {
		res.EndToEnd[failFrac.name] = float64(failed) / float64(ops)
		res.EndToEnd["alloc_kb_per_op"] = float64(allocBytes) / 1024 / float64(ops)
		res.EndToEnd["allocs_per_op"] = float64(mallocs) / float64(ops)
	}
	res.Samples = len(lat)
	if len(cal) > 0 {
		res.CalUS = median(cal)
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		res.EndToEnd["op_us_p50"] = median(lat)
		if p95, err := tail(lat, 95); err == nil {
			res.EndToEnd["op_us_p95"] = p95
		} else {
			res.Notes = append(res.Notes, "op_us_p95 not reported: "+err.Error())
		}
	}
	return res
}

// untraced returns the record's untraced sets.
func (rec *Record) untraced() []*Set {
	var out []*Set
	for _, s := range rec.Sets {
		if !s.Traced {
			out = append(out, s)
		}
	}
	return out
}

// traced returns the record's traced set, or nil.
func (rec *Record) traced() *Set {
	for _, s := range rec.Sets {
		if s.Traced {
			return s
		}
	}
	return nil
}

// addOverhead sets trace_overhead_pct on every traced workload that also
// ran untraced in this record.
func (rec *Record) addOverhead() {
	t := rec.traced()
	un := rec.untraced()
	if t == nil || len(un) == 0 {
		return
	}
	for name, tr := range t.Workloads {
		base, ok := un[len(un)-1].Workloads[name]
		if !ok {
			continue
		}
		if p, q := tr.EndToEnd["op_us_p50"], base.EndToEnd["op_us_p50"]; q > 0 {
			tr.Layer[overheadMetric] = (p/q - 1) * 100
		}
	}
}

// value is one metric in the summary line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Summary is the one-line result: correctness, op counts and the metrics.
type Summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summary reports the end-to-end metrics of each selected workload
// (median across untraced sets) or, for a traced record, every per-layer
// metric. With more than one workload selected, workload-scoped names are
// prefixed "<workload>/".
func (rec *Record) summary(selected []string) Summary {
	s := Summary{Correct: rec.Failed == 0 && len(rec.Errors) == 0, Attempted: rec.Attempted,
		Failed: rec.Failed, Metrics: map[string]value{}}
	key := func(w, name string) string {
		if len(selected) > 1 {
			return w + "/" + name
		}
		return name
	}
	un := rec.untraced()
	t := rec.traced()
	if t == nil {
		for _, w := range selected {
			for _, m := range endToEnd {
				var vs []float64
				for _, set := range un {
					if r, ok := set.Workloads[w]; ok {
						if v, ok := r.EndToEnd[m.name]; ok {
							vs = append(vs, v)
						}
					}
				}
				if len(vs) > 0 {
					s.Metrics[key(w, m.name)] = value{median(vs), m.unit}
				}
			}
		}
		return s
	}
	for _, w := range sortedKeys(t.Workloads) {
		for name, v := range t.Workloads[w].Layer {
			if !workloadScoped(name) {
				s.Metrics[name] = value{v, layerUnit(name)}
			}
		}
	}
	for name, v := range rec.Probes {
		s.Metrics[name] = value{v, layerUnit(name)}
	}
	for _, w := range selected {
		if r, ok := t.Workloads[w]; ok {
			if v, ok := r.Layer[overheadMetric]; ok {
				s.Metrics[key(w, overheadMetric)] = value{v, "%"}
			}
		}
		if len(un) > 0 {
			if r, ok := un[len(un)-1].Workloads[w]; ok {
				for _, name := range []string{"go.gc_cpu_frac", "go.gc_per_kop"} {
					if v, ok := r.Layer[name]; ok {
						s.Metrics[key(w, name)] = value{v, layerUnit(name)}
					}
				}
			}
		}
	}
	return s
}

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// BenchmarkFile is the subset of BENCHMARK.json the tool reads.
type BenchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// findBenchmarkFile reads BENCHMARK.json from the current directory or the
// nearest parent holding one.
func findBenchmarkFile() (*BenchmarkFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var f BenchmarkFile
			if err := json.Unmarshal(b, &f); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &f, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json in the current directory or above")
		}
		dir = parent
	}
}

// setValues returns one value per untraced set for a workload's metric.
func setValues(sets []*Set, w, metric string) []float64 {
	var out []float64
	for _, s := range sets {
		if r, ok := s.Workloads[w]; ok {
			if v, ok := r.EndToEnd[metric]; ok && !math.IsNaN(v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// verdict judges new against old for one metric under its bound. A metric
// whose spread (quartile distance over median) on either side exceeds the
// bound is unresolved unless every new value beats every old one.
func verdict(old, new []float64, lowerBetter bool, bnd float64) (change float64, v string) {
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(new)
	change = (nm - om) / om
	worse := change
	if !lowerBetter {
		worse = -change
	}
	beats := func(a, b float64) bool { return (lowerBetter && a < b) || (!lowerBetter && a > b) }
	allBetter := len(old) > 1 && len(new) > 1
	for _, n := range new {
		for _, o := range old {
			allBetter = allBetter && beats(n, o)
		}
	}
	oSpread, nSpread := (oq3-oq1)/om, (nq3-nq1)/nm
	switch {
	case allBetter && -worse > oSpread:
		return change, "better"
	case oSpread > bnd || nSpread > bnd:
		return change, "unresolved"
	case worse > bnd:
		return change, "worse"
	case -worse > bnd:
		return change, "better"
	}
	return change, "unchanged"
}

// setupSlack is how many seconds setup_s may rise before a rise beyond its
// share bound counts: a set-up of a few tens of milliseconds moves by more
// than its share with process start-up alone.
const setupSlack = 0.05

// Compare prints one row per workload and end-to-end metric judging new
// against old under BENCHMARK.json's bounds. With old == new it compares
// the record's first untraced set against its second. It returns how many
// rows are worse.
func Compare(old, new *Record, bf *BenchmarkFile, w io.Writer) int {
	oSets, nSets := old.untraced(), new.untraced()
	if old == new && len(oSets) > 1 {
		oSets, nSets = oSets[:1], oSets[1:2]
	}
	fmt.Fprintf(w, "%-7s %-16s %-32s %-32s %8s %9s  %s\n", "work", "metric", "old q1/median/q3", "new q1/median/q3", "change", "bound", "verdict")
	worse := 0
	row := func(wl string, m metricDef, bnd float64, bstr string) {
		o, n := setValues(oSets, wl, m.name), setValues(nSets, wl, m.name)
		if len(o) == 0 || len(n) == 0 {
			return
		}
		var change float64
		var v string
		switch m.name {
		case failFrac.name:
			v = "unchanged"
			for _, x := range n {
				if x > 0 {
					v = "worse"
				}
			}
		case "setup_s":
			bstr += fmt.Sprintf("+%gs", setupSlack)
			change, v = verdict(o, n, m.lowerBetter, max(bnd, setupSlack/median(o)))
		default:
			change, v = verdict(o, n, m.lowerBetter, bnd)
		}
		if v == "worse" {
			worse++
		}
		oq1, om, oq3 := quartiles(o)
		nq1, nm, nq3 := quartiles(n)
		fmt.Fprintf(w, "%-7s %-16s %-32s %-32s %+7.2f%% %9s  %s\n", wl, m.name,
			fmt.Sprintf("%.4g/%.4g/%.4g", oq1, om, oq3), fmt.Sprintf("%.4g/%.4g/%.4g", nq1, nm, nq3),
			change*100, bstr, v)
	}
	for _, wl := range Workloads {
		for _, m := range endToEnd {
			for _, b := range bf.EndToEnd {
				if b.Name == m.name {
					row(wl.Name, m, b.Bound, fmt.Sprintf("%g%%", b.Bound*100))
				}
			}
		}
		row(wl.Name, failFrac, 0, ">0")
	}
	return worse
}
