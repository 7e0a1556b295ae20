package lint

import (
	"go/ast"
	"path/filepath"
)

// AnalyzerBoundedgo forbids naked go statements outside the bounded worker
// pool. internal/core/runner.go is the one place allowed to spawn: its pool
// bounds parallelism, stops the cells not yet started once one fails, and
// preserves the serial==parallel determinism guarantee (results are ordered
// by cell index, never by completion). A goroutine launched anywhere else
// escapes all three properties.
var AnalyzerBoundedgo = &Analyzer{
	Name: "boundedgo",
	Doc: "forbid naked go statements outside internal/core/runner.go; all " +
		"parallelism goes through the bounded core.Runner pool so " +
		"stop-on-failure and serial==parallel determinism hold",
	Run: runBoundedgo,
}

func runBoundedgo(pass *Pass) error {
	for _, f := range pass.Files {
		pos := pass.Fset.Position(f.Pos())
		if pass.Pkg.Path() == "vmmk/internal/core" && filepath.Base(pos.Filename) == "runner.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "naked go statement: spawn through the bounded core.Runner pool (internal/core/runner.go) so stop-on-failure and determinism guarantees hold")
			}
			return true
		})
	}
	return nil
}
