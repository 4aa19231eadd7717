package analyzers

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"statcube/internal/lint"
)

// wantRE extracts the expectation from a `// want "regexp"` trailing
// comment in a corpus file.
var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

var (
	loaderOnce   sync.Once
	sharedLoader *lint.Loader
	loaderErr    error
)

// testLoader returns the one loader every test in the package shares.
// A loader's source importer type-checks the standard library and the
// module's own packages from source the first time a corpus imports them;
// sharing it pays that once per test binary instead of once per corpus.
// Corpus packages themselves are parsed and checked afresh by every
// lint.Run, and analyzers stay fresh per run.
func testLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() { sharedLoader, loaderErr = lint.NewLoader("") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedLoader
}

// runCorpus runs exactly one analyzer over its testdata corpus and
// diffs the produced diagnostics against the corpus's want annotations:
// every want line must produce a matching diagnostic and every
// diagnostic must land on a want line. Suppression runs first, so
// corpus files also lock in that //lint:ignore keeps working end to end.
func runCorpus(t *testing.T, name string) {
	t.Helper()
	a := ByName(name)
	if a == nil {
		t.Fatalf("no analyzer named %q", name)
	}
	dir := filepath.Join("testdata", "src", name)
	res, err := lint.Run(testLoader(t), []string{dir + "/..."}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, te := range res.TypeErrors {
		t.Errorf("corpus must type-check: %v", te)
	}
	if t.Failed() {
		t.FailNow()
	}

	wants := collectWants(t, dir)
	matched := map[string]bool{}
	for _, d := range res.Diagnostics {
		key := fmt.Sprintf("%s:%d", d.Position.Filename, d.Position.Line)
		w, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
			continue
		}
		if !w.MatchString(d.Message) {
			t.Errorf("diagnostic at %s does not match want %q: %s", key, w, d.Message)
		}
		matched[key] = true
	}
	for key, w := range wants {
		if !matched[key] {
			t.Errorf("missing diagnostic at %s: want match for %q", key, w)
		}
	}
}

// collectWants scans every corpus file for want annotations, keyed by
// absolute-file:line.
func collectWants(t *testing.T, dir string) map[string]*regexp.Regexp {
	t.Helper()
	wants := map[string]*regexp.Regexp{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				return fmt.Errorf("%s:%d: bad want regexp %q: %w", p, i+1, m[1], err)
			}
			wants[fmt.Sprintf("%s:%d", abs, i+1)] = re
		}
		return nil
	})
	if err != nil {
		t.Fatalf("collecting wants: %v", err)
	}
	if len(wants) == 0 {
		t.Fatalf("corpus %s has no want annotations; it cannot prove the analyzer fires", dir)
	}
	return wants
}

func TestCtxpollCorpus(t *testing.T)         { runCorpus(t, "ctxpoll") }
func TestCtxfirstCorpus(t *testing.T)        { runCorpus(t, "ctxfirst") }
func TestNakedgoroutineCorpus(t *testing.T)  { runCorpus(t, "nakedgoroutine") }
func TestErrwrapCorpus(t *testing.T)         { runCorpus(t, "errwrap") }
func TestMetricnameCorpus(t *testing.T)      { runCorpus(t, "metricname") }
func TestNodetermCorpus(t *testing.T)        { runCorpus(t, "nodeterm") }
func TestRecoverboundaryCorpus(t *testing.T) { runCorpus(t, "recoverboundary") }
func TestLedgerleakCorpus(t *testing.T)      { runCorpus(t, "ledgerleak") }
func TestSpanendCorpus(t *testing.T)         { runCorpus(t, "spanend") }
func TestCloseleakCorpus(t *testing.T)       { runCorpus(t, "closeleak") }
func TestErrdropCorpus(t *testing.T)         { runCorpus(t, "errdrop") }

// TestAllFresh locks in that All returns fresh analyzer instances:
// metricname's uniqueness ledger must not leak between driver runs, or
// the second run over the same tree would report every registration as
// a duplicate.
func TestAllFresh(t *testing.T) {
	for i := 0; i < 2; i++ {
		res, err := lint.Run(testLoader(t), []string{filepath.Join("testdata", "src", "metricname")}, []*lint.Analyzer{ByName("metricname")})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		const want = 6 // the corpus's seeded violations
		if got := len(res.Diagnostics); got != want {
			t.Fatalf("run %d: got %d diagnostics, want %d (stale cross-run ledger?)", i, got, want)
		}
	}
}
