package core

import (
	"strconv"

	"vmmk/internal/hw"
)

// E4 measures failure blast radii, §3.1's liability-inversion argument:
// when the shared storage service dies (Parallax on the VMM, the store
// server on the microkernel), exactly its clients lose service, the
// privileged kernel/monitor survives, and unrelated components continue —
// identically on both systems. The native baseline shows the structural
// alternative: an in-kernel service's death is everyone's death.

// e4Spec is E4's entry in the experiment table.
var e4Spec = Spec{
	ID:    "e4",
	Title: "failure blast radius",
	Params: []Param{{
		Name: "guests", Kind: ParamInt, DefaultInt: 3, Max: 256,
		Unit: "guests", Help: "guest count for E4",
	}},
	Run: func(r *Runner, p Params) (*Result, error) {
		rows, err := r.e4(p.Int("guests"))
		if err != nil {
			return nil, err
		}
		return NewResult(e4Table(rows)), nil
	},
}

// E4Row is one platform × scenario outcome.
type E4Row struct {
	Platform      string
	Scenario      string
	KernelAlive   bool
	StorageWorks  bool // a client storage op after the crash
	NetworkWorks  bool // an unrelated network op after the crash
	GuestsSurvive int
	GuestsTotal   int
}

// e4 runs the scenario × platform grid as independent cells: each crash
// happens on its own freshly booted system.
func (r *Runner) e4(nGuests int) ([]E4Row, error) {
	type scenario struct {
		name string
		kill func(Platform)
	}
	scenarios := []scenario{
		{"kill storage service", func(p Platform) { p.KillStorage() }},
		{"kill driver domain", func(p Platform) { p.KillDriver() }},
	}
	builders := []func(Config) (Platform, error){
		func(c Config) (Platform, error) { return NewMKStack(c) },
		func(c Config) (Platform, error) { return NewXenStack(c) },
		func(c Config) (Platform, error) { return NewNativeStack(c) },
	}
	return RunCells(r, len(scenarios)*len(builders), func(pool *hw.MachinePool, i int) (E4Row, error) {
		sc := scenarios[i/len(builders)]
		p, err := builders[i%len(builders)](Config{Guests: nGuests, pool: pool})
		if err != nil {
			return E4Row{}, err
		}
		defer p.Close()
		// Pre-crash sanity: storage and network work.
		if err := p.StorageWrite(0, 1, []byte("pre")); err != nil {
			return E4Row{}, err
		}
		p.InjectPackets(1, 64, 0)
		p.DrainRx(0)

		sc.kill(p)

		row := E4Row{Platform: p.Name(), Scenario: sc.name, GuestsTotal: nGuests}
		row.StorageWorks = p.StorageWrite(0, 2, []byte("post")) == nil
		row.NetworkWorks = p.SendPackets(1, 64, 0) == nil
		for _, cs := range p.Alive() {
			switch {
			case cs.Name == "monitor":
				row.KernelAlive = cs.Alive
			case len(cs.Name) > 5 && cs.Name[:5] == "guest":
				if cs.Alive {
					row.GuestsSurvive++
				}
			}
		}
		return row, nil
	})
}

// e4Table builds the registry table.
func e4Table(rows []E4Row) *ResultTable {
	t := NewResultTable(
		"E4 — failure blast radius (paper §3.1: identical confinement on both systems)",
		Col("platform", ""), Col("scenario", ""), Col("kernel", ""), Col("storage", ""),
		Col("network", ""), Col("guests alive", "guests"),
	)
	yn := func(b bool) string {
		if b {
			return "ok"
		}
		return "FAILED"
	}
	for _, r := range rows {
		t.AddRow(r.Platform, r.Scenario, yn(r.KernelAlive), yn(r.StorageWorks), yn(r.NetworkWorks),
			strconv.Itoa(r.GuestsSurvive)+"/"+strconv.Itoa(r.GuestsTotal))
	}
	return t
}
