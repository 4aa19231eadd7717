package main

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestStatdLinksNoArrayExhibits: the daemon's import closure stays clear
// of the physical-organisation exhibits. The engine decodes its own view
// keys, so marray and what it pulls in (bitvec, btree, rle) are linked only
// by the experiments that reproduce Figures 18–24.
func TestStatdLinksNoArrayExhibits(t *testing.T) {
	const module = "statcube"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		dir := filepath.Join(root, strings.TrimPrefix(strings.TrimPrefix(path, module), "/"))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				walk(imp)
			}
		}
	}
	walk(module + "/cmd/statd")
	for _, exhibit := range []string{"marray", "bitvec", "btree", "rle"} {
		if seen[module+"/internal/"+exhibit] {
			t.Errorf("statd links internal/%s", exhibit)
		}
	}
	if !seen[module+"/internal/cube"] {
		t.Fatal("walk never reached internal/cube; the import walk is broken")
	}
}
