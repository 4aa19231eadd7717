// Package lint is the engine's custom static-analysis framework: a
// stdlib-only analyzer driver (go/parser + go/types, no x/tools) that
// loads and type-checks the module's packages, runs a set of analyzers
// over them, honors `//lint:ignore <analyzer> <reason>` suppressions,
// and reports diagnostics as file:line:col text or as SARIF 2.1.0.
//
// PRs 1–3 introduced engine-wide conventions — context plumbed first and
// polled in hot loops, budget reservations released on every path,
// metric names literal and unique, goroutines spawned only through
// internal/parallel — that nothing enforced. The analyzers in
// internal/lint/analyzers encode those rules; cmd/statlint is the CLI
// that CI runs (`make lint`).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis at a
// fraction of the surface: an Analyzer is a named Run function over a
// Pass, a Pass is one type-checked package plus a Report sink. Keeping
// the dependency surface at zero (the module's standing constraint)
// costs us multi-pass fact propagation, which none of the engine's rules
// need.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named rule. Run inspects a single package and reports
// findings through the Pass; the driver runs analyzers in order over
// packages in deterministic (sorted import path) order, so analyzers may
// keep cross-package state in their closures (see metricname).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -only filters and
	// lint:ignore directives. Lowercase, no spaces.
	Name string
	// Doc is the one-line rule statement shown by `statlint -list`.
	Doc string
	// Run inspects pass.Files and calls pass.Reportf for each finding.
	Run func(pass *Pass) error
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Fset is the shared file set for every package in the run;
	// positions from any package resolve through it.
	Fset *token.FileSet
	// Files are the package's parsed non-test files, with comments.
	Files []*ast.File
	// Pkg and Info carry the type-checker's results. Info is always
	// non-nil; on a package with type errors it is partially filled.
	Pkg  *types.Package
	Info *types.Info
	// ImportPath is the package's module-relative import path (e.g.
	// statcube/internal/cube).
	ImportPath string

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: which rule, where, what.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String renders the diagnostic in the conventional
// file:line:col: message (analyzer) form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Position.Filename, d.Position.Line, d.Position.Column, d.Message, d.Analyzer)
}
