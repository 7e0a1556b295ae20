// Package a is the regspec fixture: experiment files that violate the
// registry conventions must fire, while the sanctioned declaration shape
// must pass. File names matter here — the eN_*.go pattern is what puts a
// file under the one-registration-per-file rule.
package a

import core "vmmk/internal/core"

func init() {
	core.Register(core.Spec{
		ID:    "e90",
		Title: "well-formed fixture experiment",
		Params: []core.Param{{
			Name: "n", Kind: core.ParamInt, DefaultInt: 100, Max: 1 << 20,
			Unit: "ops", Help: "iteration count",
		}},
		Run: run90,
	})
}

func run90(_ *core.Runner, _ core.Params) (*core.Result, error) {
	return nil, nil
}
