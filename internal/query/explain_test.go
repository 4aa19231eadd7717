package query

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statcube/internal/obs"
	"statcube/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestRunExplainEmploymentDemo(t *testing.T) {
	obj, err := workload.NewEmployment()
	if err != nil {
		t.Fatal(err)
	}
	res, span, err := RunExplainCtx(context.Background(), obj, "SHOW total income WHERE year = 1980")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells() != 1 {
		t.Errorf("result cells = %d, want 1", res.Cells())
	}
	if span == nil {
		t.Fatal("RunExplain returned nil span")
	}

	// The trace must contain the expected stage spans, nested under the
	// root: parse and evaluation stages at depth 1, storage scans at
	// depth 2.
	depthOf := map[string]int{}
	span.Walk(func(depth int, sp *obs.Span) { depthOf[sp.Name()] = depth })
	for name, wantDepth := range map[string]int{
		"query":              0,
		"parse":              1,
		"resolve":            1,
		"auto-aggregate":     1,
		"scan:s-select:year": 2,
		"scan:s-project":     2,
	} {
		if got, ok := depthOf[name]; !ok {
			t.Errorf("span %q missing from trace", name)
		} else if got != wantDepth {
			t.Errorf("span %q at depth %d, want %d", name, got, wantDepth)
		}
	}
	if got := span.SumInt("cells_scanned"); got <= 0 {
		t.Errorf("cells_scanned total = %d, want > 0", got)
	}

	// Golden file (rendered without durations for byte stability).
	got := span.Render(obs.RenderOptions{})
	golden := filepath.Join("testdata", "explain_employment.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("explain output drifted from %s (re-run with -update):\ngot:\n%swant:\n%s", golden, got, want)
	}
}

func TestRunExplainError(t *testing.T) {
	obj := incomeObject(t)
	_, span, err := RunExplainCtx(context.Background(), obj, "SHOW average income WHERE nope = 1")
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v", err)
	}
	if span == nil {
		t.Fatal("span must be returned on error")
	}
	if out := span.Render(obs.RenderOptions{}); !strings.Contains(out, "error=") {
		t.Errorf("trace lacks error annotation:\n%s", out)
	}
}

func TestRunRecordsMetrics(t *testing.T) {
	obj := incomeObject(t)
	before := obs.Default().Snapshot()
	if _, err := RunCtx(context.Background(), obj, "SHOW average income WHERE year = 1980 AND professional class = engineer"); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCtx(context.Background(), obj, "SHOW average income WHERE bogus = 1"); err == nil {
		t.Fatal("expected error")
	}
	delta := obs.Default().Snapshot().Sub(before)
	if delta.Counters["query.queries"] != 2 {
		t.Errorf("query.queries delta = %d, want 2", delta.Counters["query.queries"])
	}
	if delta.Counters["query.errors"] != 1 {
		t.Errorf("query.errors delta = %d, want 1", delta.Counters["query.errors"])
	}
	h := delta.Histograms["query.latency_ns"]
	if h.Count != 2 || h.Sum <= 0 {
		t.Errorf("query.latency_ns delta = %+v", h)
	}
}
