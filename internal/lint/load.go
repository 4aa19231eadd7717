package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	Dir        string
	ImportPath string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects type-checker complaints. The tier-1 gate
	// (go build) keeps the real tree clean, so these normally indicate
	// a broken testdata corpus; the driver surfaces them and exits 2.
	TypeErrors []error
}

// Loader parses and type-checks module packages into a shared FileSet.
// Stdlib and intra-module imports resolve through go/importer's source
// importer, so the whole pipeline stays on the standard library.
type Loader struct {
	Fset *token.FileSet
	// Sources caches file contents by absolute path for every parsed
	// file; the suppression scanner uses it to tell trailing directives
	// from standalone ones.
	Sources map[string][]byte

	modRoot string
	modPath string
	imp     types.Importer
}

// NewLoader locates the enclosing module (walking up from dir, "" =
// current directory) and returns a loader for its packages.
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, path, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Sources: map[string][]byte{},
		modRoot: root,
		modPath: path,
		imp:     importer.ForCompiler(fset, "source", nil),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		gomod := filepath.Join(d, "go.mod")
		if data, rerr := os.ReadFile(gomod); rerr == nil {
			p := modulePath(data)
			if p == "" {
				return "", "", fmt.Errorf("lint: %s has no module line", gomod)
			}
			return d, p, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			return strings.Trim(rest, `"`)
		}
	}
	return ""
}

// ModRoot returns the module root directory the loader resolved — the
// base SARIF output uses to make file paths checkout-independent.
func (l *Loader) ModRoot() string { return l.modRoot }

// Load expands the patterns and returns the matched packages sorted by
// import path. Supported patterns: a directory ("./internal/cube"), or a
// recursive pattern ("./...", "./internal/..."). Directories named
// testdata, vendor, or starting with "." or "_" are skipped during
// recursive walks (an explicit pattern root is always accepted, so the
// analyzer test harness can point at a testdata corpus directly).
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// expand resolves patterns to a sorted, de-duplicated list of candidate
// package directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = l.modRoot
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		info, err := os.Stat(abs)
		if err != nil {
			return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(abs)
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if p != abs && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// skipDir reports whether a recursive walk descends into name.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// loadDir parses and type-checks the package in dir. Directories with no
// non-test Go files return (nil, nil).
func (l *Loader) loadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, path, data, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
		}
		l.Sources[path] = data
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil {
		return nil, err
	}
	importPath := l.modPath
	if rel != "." {
		importPath = l.modPath + "/" + filepath.ToSlash(rel)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg := &Package{Dir: dir, ImportPath: importPath, Files: files, Info: info}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never short-circuits on soft errors thanks to conf.Error;
	// its return is folded into TypeErrors, and Info stays usable for
	// whatever did check.
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	pkg.Types = tpkg
	return pkg, nil
}
