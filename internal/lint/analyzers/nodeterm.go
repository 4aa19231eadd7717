package analyzers

import (
	"go/ast"
	"strings"

	"statcube/internal/lint"
)

// newNodeterm keeps the deterministic counter paths deterministic. The
// bench-regression gate diffs engine counters against a committed
// baseline exactly, and the experiment suite's claim
// checks assume identical numbers across runs; both collapse if an
// internal/ package derives work from wall-clock time or an unseeded
// random stream. Two sources are flagged inside internal/ (internal/obs
// excepted — measuring wall-clock latency is its whole job):
//
//   - time.Now / time.Since: wall-clock reads. The sanctioned latency
//     probes in query/ and experiments/ carry //lint:ignore directives
//     stating that their output feeds only machine-dependent metrics
//     (duration histograms, duration_ms) that benchdiff excludes.
//   - math/rand package-level functions (rand.Intn, rand.Float64, …):
//     the global generator is seeded randomly since Go 1.20. Seeded
//     generators via rand.New(rand.NewSource(seed)) — the workload and
//     experiment idiom — stay legal, as do methods on a *rand.Rand.
//
// cmd/ and scripts/ are out of scope: CLIs legitimately time things.
func newNodeterm() *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "nodeterm",
		Doc:  "no time.Now/time.Since or global math/rand in internal/ (except internal/obs); seed a *rand.Rand instead",
	}
	a.Run = func(pass *lint.Pass) error {
		if !strings.Contains(pass.ImportPath, "/internal/") && !strings.HasPrefix(pass.ImportPath, "internal/") {
			return nil
		}
		if pathHasSuffix(pass.ImportPath, "internal/obs") {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.Info, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if fn.Name() == "Now" || fn.Name() == "Since" {
						pass.Reportf(call.Pos(),
							"time.%s in a deterministic counter path: wall-clock reads drift the bench baseline (move timing to internal/obs or suppress with a reason)", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if !strings.HasPrefix(fn.Name(), "New") && !isMethod(fn) {
						pass.Reportf(call.Pos(),
							"global rand.%s is nondeterministically seeded: use rand.New(rand.NewSource(seed)) so runs reproduce", fn.Name())
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}
