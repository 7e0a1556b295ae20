package core

import (
	"fmt"

	"vmmk/internal/hw"
	"vmmk/internal/simrand"
)

// E8 is the macro-benchmark of §3.3: a composite web-serving workload
// (receive request, consult storage, send response) run on the native
// baseline and on both paravirtualised stacks. HHL+97 reported L4Linux
// within a few percent of native for macro loads; the experiment reports
// each system's relative slowdown so the "OS as component works on both"
// claim is checkable.

// e8Spec is E8's entry in the experiment table.
var e8Spec = Spec{
	ID:    "e8",
	Title: "web-serving macro benchmark",
	Params: []Param{{
		Name: "requests", Kind: ParamInt, DefaultInt: 50, Max: 1 << 20,
		Unit: "requests", Help: "request count for E8",
	}},
	Run: func(r *Runner, p Params) (*Result, error) {
		rows, err := r.e8(p.Int("requests"))
		if err != nil {
			return nil, err
		}
		return NewResult(e8Table(rows)), nil
	},
}

// E8Row is one platform's macro result.
type E8Row struct {
	Platform     string
	Requests     int
	TotalCycles  uint64
	CyclesPerReq uint64
	RelativeCost float64 // vs native (1.0 = native speed)
}

// webRequest is one request of the composite web-serving workload motivated
// by the paper's I/O arguments: receive a request packet, consult storage,
// send a response packet.
type webRequest struct {
	reqSize, respSize int
	block             uint64
}

// webStream draws n web requests over a working set of ws blocks from one
// seeded stream. Request sizes model small HTTP GETs; response sizes are
// bimodal (small dynamic pages and larger static ones).
func webStream(n int, ws, seed uint64) []webRequest {
	r := simrand.New(seed)
	out := make([]webRequest, n)
	for i := range out {
		resp := 512
		if r.Bool(0.3) {
			resp = 4096
		}
		out[i] = webRequest{reqSize: 128 + r.Intn(256), respSize: resp, block: r.Uint64n(ws)}
	}
	return out
}

// thinkCycles is the per-request application work (page rendering, string
// handling). Macro benchmarks are compute-diluted — this is what lets
// HHL+97 report few-percent overheads despite multi-x syscall
// microbenchmark costs; without it the experiment would measure only
// crossing overhead, which is E7's job.
const thinkCycles = 100_000

// e8 serves the same request stream on each platform in its own cell; the
// relative-cost column is derived from the native row after the cells join,
// so it is independent of which platform finishes first.
func (r *Runner) e8(n int) ([]E8Row, error) {
	reqs := webStream(n, 32, 11)
	serve := func(p Platform) (uint64, error) {
		// The per-request think-time charge goes to the app's own
		// component; intern its handle once, not per request.
		app := p.M().Rec.Intern("app." + p.Name())
		// Preload the working set so reads hit.
		for b := uint64(0); b < 32; b++ {
			if err := p.StorageWrite(0, b, []byte("content")); err != nil {
				return 0, err
			}
		}
		t0 := p.M().Now()
		for _, r := range reqs {
			p.InjectPackets(1, r.reqSize, 0)
			if p.DrainRx(0) != 1 {
				return 0, fmt.Errorf("E8: request packet lost on %s", p.Name())
			}
			if _, err := p.StorageRead(0, r.block); err != nil {
				return 0, err
			}
			if err := p.SendPackets(1, r.respSize, 0); err != nil {
				return 0, err
			}
		}
		// The application think time lands as one deferred aggregate after
		// the request loop. Every device wait is scheduled relative to the
		// current clock, so moving this uniform per-request charge out of
		// the loop shifts intermediate timestamps but leaves the elapsed
		// total — the only thing the table reports — identical.
		p.M().CPU.WorkN(app, thinkCycles, uint64(len(reqs)))
		return uint64(p.M().Now() - t0), nil
	}

	builders := []func(Config) (Platform, error){
		func(c Config) (Platform, error) { return NewNativeStack(c) },
		func(c Config) (Platform, error) { return NewMKStack(c) },
		func(c Config) (Platform, error) { return NewXenStack(c) },
	}
	rows, err := RunCells(r, len(builders), func(pool *hw.MachinePool, i int) (E8Row, error) {
		p, err := builders[i](Config{pool: pool})
		if err != nil {
			return E8Row{}, err
		}
		defer p.Close()
		cyc, err := serve(p)
		if err != nil {
			return E8Row{}, err
		}
		return E8Row{Platform: p.Name(), Requests: n, TotalCycles: cyc, CyclesPerReq: cyc / uint64(n)}, nil
	})
	if err != nil {
		return nil, err
	}
	var nativeCyc uint64
	for _, row := range rows {
		if row.Platform == "native" {
			nativeCyc = row.TotalCycles
		}
	}
	for i := range rows {
		if rows[i].Platform == "native" {
			rows[i].RelativeCost = 1.0
		} else if nativeCyc > 0 {
			rows[i].RelativeCost = float64(rows[i].TotalCycles) / float64(nativeCyc)
		}
	}
	return rows, nil
}

// e8Table builds the registry table.
func e8Table(rows []E8Row) *ResultTable {
	t := NewResultTable(
		"E8 — web-serving macro workload (paper §3.3: paravirt OS works on both)",
		Col("platform", ""), Col("requests", "requests"),
		Col("cycles/request", "cycles"), Col("relative cost", "ratio"),
	)
	for _, r := range rows {
		t.AddRow(r.Platform, r.Requests, r.CyclesPerReq, fmt.Sprintf("%.2fx", r.RelativeCost))
	}
	return t
}
