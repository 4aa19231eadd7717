package analyzers

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"statcube/internal/lint"
)

// runFixCorpus locks in the -fix contract end to end for one analyzer:
// every finding in the corpus carries a fix, applying the fixes
// reproduces the .golden file byte for byte, and the fixed code both
// type-checks and re-lints clean (the round trip).
func runFixCorpus(t *testing.T, name string, wantFindings int) {
	t.Helper()
	a := ByName(name)
	if a == nil {
		t.Fatalf("no analyzer named %q", name)
	}
	dir := filepath.Join("testdata", "fix", name)
	loader := testLoader(t)
	res, err := lint.Run(loader, []string{dir}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, te := range res.TypeErrors {
		t.Errorf("fix corpus must type-check: %v", te)
	}
	if got := len(res.Diagnostics); got != wantFindings {
		for _, d := range res.Diagnostics {
			t.Logf("finding: %s", d.String())
		}
		t.Errorf("got %d finding(s), want %d", got, wantFindings)
	}
	if got := lint.FixCount(res.Diagnostics); got != len(res.Diagnostics) {
		t.Errorf("every corpus finding must carry a fix: %d of %d do", got, len(res.Diagnostics))
	}
	if t.Failed() {
		t.FailNow()
	}

	changed, applied, skipped := lint.ApplyFixes(res.Diagnostics, loader.Sources)
	if skipped != 0 {
		t.Fatalf("ApplyFixes skipped %d fix(es); corpus fixes must not conflict", skipped)
	}
	if applied != wantFindings {
		t.Fatalf("applied %d fix(es), want %d", applied, wantFindings)
	}
	for file, got := range changed {
		want, err := os.ReadFile(file + ".golden")
		if err != nil {
			t.Fatalf("reading golden: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: fixed output differs from golden:\n--- got ---\n%s--- want ---\n%s", file, got, want)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Round trip: write the fixed files as a throwaway package inside
	// testdata (so module imports still resolve) and re-lint — the fixed
	// code must compile with zero remaining findings.
	tmp, err := os.MkdirTemp(filepath.Join("testdata", "fix"), "roundtrip")
	if err != nil {
		t.Fatalf("MkdirTemp: %v", err)
	}
	t.Cleanup(func() { os.RemoveAll(tmp) })
	for file, got := range changed {
		if err := os.WriteFile(filepath.Join(tmp, filepath.Base(file)), got, 0o644); err != nil {
			t.Fatalf("writing round-trip file: %v", err)
		}
	}
	res2, err := lint.Run(loader, []string{tmp}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("lint.Run (round trip): %v", err)
	}
	for _, te := range res2.TypeErrors {
		t.Errorf("fixed code must compile: %v", te)
	}
	for _, d := range res2.Diagnostics {
		t.Errorf("fixed code must lint clean: %s", d.String())
	}
}

func TestSpanendFixRoundTrip(t *testing.T)   { runFixCorpus(t, "spanend", 2) }
func TestCloseleakFixRoundTrip(t *testing.T) { runFixCorpus(t, "closeleak", 2) }
func TestErrwrapFixRoundTrip(t *testing.T)   { runFixCorpus(t, "errwrap", 2) }
