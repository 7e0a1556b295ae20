package lint

import (
	"go/ast"
	"go/constant"
)

// AnalyzerRegspec enforces the result-schema convention: every Col(...)
// column of a core.ResultTable is built from compile-time string constants,
// so the machine-readable output schema can never depend on runtime state.
var AnalyzerRegspec = &Analyzer{
	Name: "regspec",
	Doc:  "constant column schemas: core.Col's name and unit are string constants",
	Run:  runRegspec,
}

const corePath = "vmmk/internal/core"

func runRegspec(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 2 &&
				isPkgFunc(calleeFunc(pass.Info, call), corePath, "Col") {
				checkColCall(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkColCall requires Col's name and unit to be compile-time string
// constants (the unit may be the empty string for dimensionless label
// columns, but it must be spelled out, never computed).
func checkColCall(pass *Pass, call *ast.CallExpr) {
	name, nameConst := constString(pass, call.Args[0])
	if !nameConst {
		pass.Reportf(call.Args[0].Pos(), "Col name must be a compile-time string constant so the result schema is statically auditable")
	} else if name == "" {
		pass.Reportf(call.Args[0].Pos(), "Col name must not be empty")
	}
	if _, unitConst := constString(pass, call.Args[1]); !unitConst {
		pass.Reportf(call.Args[1].Pos(), "Col unit must be a compile-time string constant (\"\" is allowed for label columns, a computed unit is not)")
	}
}

// constString evaluates e as a compile-time string constant.
func constString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
