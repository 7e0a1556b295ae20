package bench

import (
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"vmmk/internal/simrand"
)

// repsPerSet is how many reps each workload runs per set, each in a fresh
// child process, rotating through the workloads so host drift spreads
// evenly over them. Ten reps give every median and tail twice the samples
// of five; the drift within a rep is what calib.go scales away.
const repsPerSet = 10

// Workload is one named benchmark workload: a closed loop with one client
// issuing Ops operations per rep. Why each was chosen is recorded in
// BENCHMARK.json and README.md.
type Workload struct {
	Name string
	// Ops is the op count of one rep at full size.
	Ops int
	// EpochOps is how many ops run between reboots of the system under
	// test (0: no epochs, every op stands alone).
	EpochOps int
	// spans maps span names to the per-layer metrics their median
	// duration reports.
	spans []spanMetric
	new   func(e *env) rig
}

// epochsPerRep is how many epochs a full-size rep runs.
func (w *Workload) epochsPerRep() int {
	if w.EpochOps == 0 {
		return 0
	}
	return w.Ops / w.EpochOps
}

// period is the length of the epoch input sequence. Rep k of a set starts
// at epoch k*epochsPerRep, so a set's reps run distinct inputs, and epoch e
// replays the inputs of epoch e mod period, so the stored oracle covers
// every epoch a rep can reach.
func (w *Workload) period() int { return repsPerSet * w.epochsPerRep() }

// spanMetric reports the median duration of the spans named span as the
// per-layer metric name, in unit ("ms", "us" or "ns").
type spanMetric struct{ span, name, unit string }

// Workloads lists the benchmark's workloads in the order reps rotate
// through them.
var Workloads = []*Workload{sweepWorkload, fleetWorkload, ioWorkload, faultsWorkload}

// lookup returns the named workload.
func lookup(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rig is one workload's system under test and its checks. An op's error
// is that op's failed check; an epoch's error fails every op of the epoch.
type rig interface {
	// setup boots the system, runs the untimed warm-up and the
	// correctness pre-check.
	setup() error
	beginEpoch(e int) error
	op(i int) error
	// endEpoch checks the epoch that ran ops ops (fewer than EpochOps when
	// the rep ended inside it) and shuts its system down.
	endEpoch(e, ops int) error
	// counters returns the layer counters accumulated over the timed phase.
	counters() map[string]float64
}

// noEpochs is embedded by rigs whose ops stand alone.
type noEpochs struct{}

func (noEpochs) beginEpoch(int) error         { return nil }
func (noEpochs) endEpoch(int, int) error      { return nil }
func (noEpochs) counters() map[string]float64 { return nil }

// env is what a rig shares with the rep that runs it.
type env struct {
	seed uint64
	rep  int // the rep's index in its set
	// first is the rep's first epoch; period is the workload's period.
	first, period int
	tr            *tracer // nil outside a traced rep's timed phase
	// oracle holds the stored per-epoch digests for seed (nil: none).
	oracle []string
	// seen holds the digest of each epoch of the period run so far, so
	// every later run of the same inputs must reproduce it.
	seen map[int]string
}

// epochRand returns the input stream of epoch ep.
func (e *env) epochRand(ep int) *simrand.Rand {
	return simrand.New(e.seed).Fork(uint64(ep % e.period))
}

// opRand returns the input stream of a rep of a workload without epochs.
func (e *env) opRand() *simrand.Rand {
	return simrand.New(e.seed).Fork(uint64(e.rep))
}

// epochDigest is the digest checkEpoch compares: 64 bits of SHA-256.
func epochDigest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// checkEpoch compares the digest of complete epoch ep against the stored
// oracle, or against the first run of the same inputs.
func (e *env) checkEpoch(ep int, got string) error {
	k := ep % e.period
	want, ok := "", false
	if k < len(e.oracle) {
		want, ok = e.oracle[k], true
	} else {
		want, ok = e.seen[k]
	}
	if ok && got != want {
		return fmt.Errorf("epoch %d: simulated statistics digest %s, want %s", k, got, want)
	}
	e.seen[k] = got
	return nil
}

// RepConfig selects one rep.
type RepConfig struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Rep is the rep's index in its set: it picks the rep's stretch of
	// the input sequence.
	Rep int `json:"rep,omitempty"`
	// Ops is how many ops the rep times: a fixed count, so two commits
	// compared on one host do identical simulated work.
	Ops int `json:"ops"`
	// TraceDir makes the rep traced: spans are kept and written to
	// TraceDir/<workload>.json, and span medians become layer metrics.
	TraceDir string `json:"trace_dir,omitempty"`
}

// Rep is one rep's measurements.
type Rep struct {
	Workload string   `json:"workload"`
	Traced   bool     `json:"traced"`
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Errors   []string `json:"errors,omitempty"`
	// WallS is the timed phase's wall time, epoch reboots and checks
	// included, calibration runs excluded; SetupS is from process entry to
	// the first timed op. Both, and LatNS, are as measured: aggregate
	// scales them by hostScale(CalUS).
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	// CalUS is the calibration kernel's mean time in the timed phase.
	CalUS float64 `json:"cal_us"`
	// LatNS holds the latencies of a uniform sample of the timed ops: all
	// of them up to latSample ops, a reservoir of latSample beyond.
	LatNS      []int64 `json:"lat_ns"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	RSSPeakMB  float64 `json:"rss_peak_mb"`
	GCCPUFrac  float64 `json:"gc_cpu_frac"`
	GCCycles   uint64  `json:"gc_cycles"`
	// Layer holds the per-layer metrics: the rig's counters, plus span
	// medians in a traced rep.
	Layer map[string]float64 `json:"layer,omitempty"`
	// SelfUS is each span's median self time (traced reps).
	SelfUS map[string]float64 `json:"self_us,omitempty"`
}

// maxErrors bounds the failure messages a rep keeps.
const maxErrors = 5

// latSample bounds the latencies a rep keeps, so the benchmark's own
// memory does not grow with the op count and show in rss_peak_mb.
const latSample = 1 << 16

// RunRep runs one rep in this process; start is when the process entered
// main, so setup time covers boot, warm-up and the pre-check.
func RunRep(cfg RepConfig, start time.Time) (*Rep, error) {
	w, err := lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Ops <= 0 {
		return nil, fmt.Errorf("%s: a rep needs a positive op count", w.Name)
	}
	e := &env{seed: cfg.Seed, rep: cfg.Rep, first: cfg.Rep * w.epochsPerRep(), period: w.period(), seen: map[int]string{}}
	if w.EpochOps > 0 {
		if e.oracle, err = epochOracle(w.Name, cfg.Seed); err != nil {
			return nil, err
		}
	}
	d := w.new(e)
	if err := d.setup(); err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.Name, err)
	}
	rep := &Rep{Workload: w.Name, Traced: cfg.TraceDir != ""}
	if rep.Traced {
		e.tr = newTracer()
	}
	fail := func(n int, err error) {
		rep.Failed += n
		if len(rep.Errors) < maxErrors {
			rep.Errors = append(rep.Errors, err.Error())
		}
	}
	// Reservoir sampling (Algorithm R) on a fixed stream of its own, so
	// which ops are kept never depends on the workload's inputs.
	rep.LatNS = make([]int64, 0, latSample)
	keep := simrand.New(latSample)
	record := func(i int, ns int64) {
		if i < latSample {
			rep.LatNS = append(rep.LatNS, ns)
		} else if j := keep.Uint64n(uint64(i) + 1); j < latSample {
			rep.LatNS[j] = ns
		}
	}
	cal := newCalibrator()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := readGC()

	t0 := now()
	rep.SetupS = t0.Sub(start).Seconds()
	epochOps := max(w.EpochOps, 1)
	var calTime time.Duration
	i := 0
	for ep := e.first; i < cfg.Ops; ep++ {
		calTime += cal.tick()
		if err := d.beginEpoch(ep); err != nil {
			return nil, fmt.Errorf("%s epoch %d boot: %w", w.Name, ep, err)
		}
		ran, failedHere := 0, 0
		for ; ran < epochOps && i < cfg.Ops; ran, i = ran+1, i+1 {
			e.tr.setOp(i)
			sp := e.tr.begin("op")
			t := now()
			err := d.op(i)
			record(i, int64(now().Sub(t)))
			e.tr.end(sp)
			e.tr.setOp(-1)
			if err != nil {
				failedHere++
				fail(1, fmt.Errorf("op %d: %w", i, err))
			}
		}
		if err := d.endEpoch(ep, ran); err != nil {
			fail(ran-failedHere, err)
		}
	}
	rep.WallS = (now().Sub(t0) - calTime).Seconds()
	rep.CalUS = cal.meanUS()
	rep.Ops = i

	runtime.ReadMemStats(&m1)
	gc1 := readGC()
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.GCCycles = uint64(m1.NumGC - m0.NumGC)
	if cpu := gc1.total - gc0.total; cpu > 0 {
		rep.GCCPUFrac = (gc1.gc - gc0.gc) / cpu
	}
	if rep.RSSPeakMB, err = peakRSS(); err != nil {
		return nil, err
	}
	rep.Layer = d.counters()
	if rep.Traced {
		if rep.Layer == nil {
			rep.Layer = map[string]float64{}
		}
		durs := e.tr.durations()
		for _, sm := range w.spans {
			if vs := durs[sm.span]; len(vs) > 0 {
				rep.Layer[sm.name] = median(vs) / unitNS[sm.unit]
			}
		}
		rep.SelfUS = e.tr.selfMedians()
		if err := e.tr.writeChrome(cfg.TraceDir, w.Name); err != nil {
			return nil, fmt.Errorf("writing %s trace: %w", w.Name, err)
		}
	}
	return rep, nil
}

// unitNS is how many ns one unit of a span metric holds.
var unitNS = map[string]float64{"ms": 1e6, "us": 1e3, "ns": 1}

// peakRSS returns this process's peak resident set in MiB: VmHWM, the
// high-water mark of its own address space. getrusage's maxrss would not
// do: Linux carries it across execve, so a child spawned by a large
// parent starts at the parent's peak.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcTimes is the process's cumulative GC and total CPU time in seconds.
type gcTimes struct{ gc, total float64 }

func readGC() gcTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// periodDigests runs one full period of an epoch workload untimed and
// returns its per-epoch digests — what Update stores as the oracle.
func periodDigests(w *Workload, seed uint64) ([]string, error) {
	e := &env{seed: seed, period: w.period(), seen: map[int]string{}}
	d := w.new(e)
	for ep := 0; ep < e.period; ep++ {
		if err := runEpoch(d, w.EpochOps, ep); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
		}
	}
	out := make([]string, e.period)
	for k := range out {
		out[k] = e.seen[k]
	}
	return out, nil
}

// runEpoch runs epoch ep untimed; every op must pass.
func runEpoch(d rig, epochOps, ep int) error {
	if err := d.beginEpoch(ep); err != nil {
		return fmt.Errorf("epoch %d boot: %w", ep, err)
	}
	for k := 0; k < epochOps; k++ {
		if err := d.op(ep*epochOps + k); err != nil {
			return fmt.Errorf("epoch %d op %d: %w", ep, k, err)
		}
	}
	return d.endEpoch(ep, epochOps)
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
