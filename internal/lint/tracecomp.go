package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// AnalyzerTracecomp enforces the flat-ledger charging invariant: every
// charge site passes a trace.Comp handle that was interned at construction
// time. Building the component at the charge site — an inline Intern or
// InternJoin call, a fmt.Sprintf, or string concatenation — reintroduces the hashing and
// allocation the handle refactor removed from the hot path (22 -> 4.2
// ns/op), so it is forbidden wherever a Comp flows into a Charge* method —
// the batched ChargeN included: one aggregate call per loop makes the
// per-call overhead rarer, not acceptable.
var AnalyzerTracecomp = &Analyzer{
	Name: "tracecomp",
	Doc: "forbid component names built at Recorder/CPU charge sites " +
		"(inline Intern or InternJoin, fmt.Sprintf, string concatenation); intern a " +
		"trace.Comp once at construction and charge through the stored handle",
	Run: runTracecomp,
}

func runTracecomp(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || !strings.HasPrefix(fn.Name(), "Charge") {
				return true
			}
			for _, arg := range call.Args {
				if !isNamedType(pass.TypeOf(arg), "vmmk/internal/trace", "Comp") {
					continue
				}
				if bad, what := builtAtChargeSite(pass, arg); bad {
					pass.Reportf(arg.Pos(), "component handle passed to %s is built at the charge site (%s); intern the trace.Comp at construction and charge through the stored handle", fn.Name(), what)
				}
			}
			return true
		})
	}
	return nil
}

// builtAtChargeSite reports whether the Comp-typed argument expression
// constructs its component on the spot, and names the offending construct.
func builtAtChargeSite(pass *Pass, arg ast.Expr) (bool, string) {
	var what string
	ast.Inspect(arg, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, n); fn != nil {
				if fn.Name() == "Intern" || fn.Name() == "InternJoin" {
					what = "inline " + fn.Name() + " call"
					return false
				}
				if isPkgFunc(fn, "fmt", "Sprintf") || isPkgFunc(fn, "fmt", "Sprint") {
					what = "fmt.Sprint at the charge site"
					return false
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.TypeOf(n.X)) {
				what = "string concatenation at the charge site"
				return false
			}
		}
		return true
	})
	return what != "", what
}
