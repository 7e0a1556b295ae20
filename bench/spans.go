package bench

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// now is the harness's one read of the host wall clock. Everything the
// benchmark measures is host time; the simulated cycles it checks come from
// each machine's own virtual clock.
func now() time.Time {
	return time.Now() //vmmklint:ignore host wall clock for the benchmark harness
}

// span is one timed call across a layer boundary in a traced rep.
type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	parent     int32 // index of the enclosing span, -1 at top level
	op         int32 // op the span belongs to, -1 for epoch work
}

// tracer keeps a traced rep's spans in memory until the rep ends. Its
// methods are no-ops on a nil *tracer, which is what untraced reps carry, so
// an instrumented call site costs them one nil check.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32 // stack of spans begun and not yet ended
	op     int32
}

func newTracer() *tracer { return &tracer{origin: now(), op: -1} }

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(now().Sub(t.origin)), parent: parent, op: t.op})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(now().Sub(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// setOp tags the spans begun from now on with op i (-1: epoch work).
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = int32(i)
	}
}

// rename relabels span i once its outcome is known (a placement that
// turned out to be a rejection).
func (t *tracer) rename(i int32, name string) {
	if t != nil {
		t.spans[i].name = name
	}
}

// durations returns every span's duration in ns, grouped by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.name] = append(out[s.name], float64(s.end-s.start))
	}
	return out
}

// selfMedians returns, per span name, the median self time in µs: a span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfMedians() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[string][]float64{}
	for i, s := range t.spans {
		self[s.name] = append(self[s.name], float64(s.end-s.start-child[i])/1e3)
	}
	out := make(map[string]float64, len(self))
	for name, vs := range self {
		out[name] = median(vs)
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, µs timestamps) to dir/<name>.json, loadable in Perfetto or
// chrome://tracing.
func (t *tracer) writeChrome(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString("\n{\"name\":")
		w.WriteString(strconv.Quote(s.name))
		w.WriteString(`,"ph":"X","pid":1,"tid":1,"ts":`)
		w.WriteString(strconv.FormatFloat(float64(s.start)/1e3, 'f', 3, 64))
		w.WriteString(`,"dur":`)
		w.WriteString(strconv.FormatFloat(float64(s.end-s.start)/1e3, 'f', 3, 64))
		w.WriteString(`,"args":{"span":`)
		w.WriteString(strconv.Itoa(i))
		w.WriteString(`,"parent":`)
		w.WriteString(strconv.Itoa(int(s.parent)))
		w.WriteString(`,"op":`)
		w.WriteString(strconv.Itoa(int(s.op)))
		w.WriteString("}}")
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
