package analyzers

import (
	"go/ast"

	"statcube/internal/lint"
)

// newNakedgoroutine bans raw `go` statements outside the two packages
// that own concurrency: internal/parallel (the fan-out layer, whose pool
// drains its workers, propagates the first error and honors
// cancellation) and internal/obs (the metrics server's accept loop). A
// goroutine spawned anywhere else escapes the engine's error
// propagation, cancellation draining, and worker accounting — the
// contract PR 2 established and every parallel stage depends on.
func newNakedgoroutine() *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "nakedgoroutine",
		Doc:  "no `go` statements outside internal/parallel and internal/obs; fan out through parallel.Stage",
	}
	a.Run = func(pass *lint.Pass) error {
		if pathHasSuffix(pass.ImportPath, "internal/parallel") || pathHasSuffix(pass.ImportPath, "internal/obs") {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(),
						"naked goroutine: spawn through internal/parallel (Stage.ForEach) so errors, cancellation and worker accounting stay engine-wide")
				}
				return true
			})
		}
		return nil
	}
	return a
}
