package lint

import (
	"fmt"
	"io"
	"sort"
)

// Result is one full lint run: the surviving diagnostics plus any type
// errors the loader hit (a non-empty TypeErrors means the findings may be
// incomplete and the run should exit 2, mirroring a build break).
type Result struct {
	Diagnostics []Diagnostic
	TypeErrors  []error
	// Suppressions counts the //lint:ignore directives seen, keyed by the
	// analyzer each names (a multi-analyzer directive counts once per
	// name). CI gates on these totals so the suppression inventory can
	// only shrink.
	Suppressions map[string]int
}

// Run loads the packages matched by patterns and applies every analyzer,
// returning position-sorted, suppression-filtered diagnostics.
// Analyzers run over packages in sorted import-path order, so analyzers
// holding cross-package state (metricname's uniqueness ledger) see a
// deterministic sequence.
func Run(loader *Loader, patterns []string, analyzers []*Analyzer) (*Result, error) {
	pkgs, err := loader.Load(patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{Suppressions: map[string]int{}}
	var diags []Diagnostic
	var dirs []directive
	for _, pkg := range pkgs {
		res.TypeErrors = append(res.TypeErrors, pkg.TypeErrors...)
		d, bad := parseDirectives(loader.Fset, pkg.Files, loader.Sources)
		dirs = append(dirs, d...)
		diags = append(diags, bad...)
		for _, dir := range d {
			for _, name := range dir.analyzers {
				res.Suppressions[name]++
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       loader.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				ImportPath: pkg.ImportPath,
				report:     func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	diags = filterSuppressed(diags, dirs)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	res.Diagnostics = diags
	return res, nil
}

// WriteText prints diagnostics one per line in file:line:col form.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}
