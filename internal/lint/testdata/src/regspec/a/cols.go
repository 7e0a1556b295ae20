// Package a is the regspec fixture: a Col whose name or unit is not a
// compile-time string constant, or whose name is empty, must fire, while
// constant columns, including an explicit "" unit, must pass.
package a

import core "vmmk/internal/core"

func tables(unit string) *core.ResultTable {
	return core.NewResultTable("fixture",
		core.Col("ops", "ops"),
		core.Col("mode", ""),  // an explicit dimensionless label column is fine
		core.Col("x", unit),   // want `Col unit must be a compile-time string constant`
		core.Col(unit, "ops"), // want `Col name must be a compile-time string constant`
		core.Col("", "ops"),   // want `Col name must not be empty`
	)
}
