package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"statcube/internal/query"
)

// tinySize keeps every workload's work in the milliseconds.
var tinySize = size{20, 8, 60, 4000}

func quickConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 7, window: 300 * time.Millisecond, trace: trace, outDir: t.TempDir(), size: tinySize, cal: newCalibration(1000), quick: true}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name+" "+d.unit)
	}
	return out
}

func specNames(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	return out
}

// TestSpecInStep holds BENCHMARK.json and the program's own metric and
// workload lists together.
func TestSpecInStep(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(specNames(sp.EndToEnd), ","), strings.Join(names(endToEnd), ","); got != want {
		t.Errorf("end_to_end in BENCHMARK.json:\n %s\nin spec.go:\n %s", got, want)
	}
	if got, want := strings.Join(specNames(sp.PerLayer), ","), strings.Join(names(perLayer), ","); got != want {
		t.Errorf("per_layer in BENCHMARK.json:\n %s\nin spec.go:\n %s", got, want)
	}
	var wl []string
	for _, w := range sp.Workloads {
		wl = append(wl, w.Name)
	}
	if got, want := strings.Join(wl, ","), strings.Join(workloads(), ","); got != want {
		t.Errorf("workloads in BENCHMARK.json %s, in the program %s", got, want)
	}
}

// TestWorkloads runs every workload end to end and traced, in
// miniature: each must be correct and report exactly its metric list.
func TestWorkloads(t *testing.T) {
	for _, name := range workloads() {
		for _, trace := range []bool{false, true} {
			cfg := quickConfig(t, trace)
			res, err := runWorkload(context.Background(), name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", name, trace, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want a finite value in %s", name, trace, d.name, m, ok, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if !trace {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace_"+name+".ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			var first span
			if err := json.Unmarshal(raw[:bytes.IndexByte(raw, '\n')], &first); err != nil || first.Name == "" || first.End < first.Start {
				t.Errorf("%s: first span %+v (%v)", name, first, err)
			}
			hit, evicted := res.values["serve.cache_hit_ratio"], res.values["serve.cache_evictions"]
			switch name {
			case "warm_read":
				if hit < 0.97 {
					t.Errorf("warm_read: cache hit ratio %v, want >= 0.97", hit)
				}
			case "cold_read":
				if hit != 0 || evicted == 0 {
					t.Errorf("cold_read: cache hit ratio %v with %v evictions, want 0 with some", hit, evicted)
				}
			}
		}
	}
}

// TestOracleAgreesWithQuery checks the oracle against the engine's own
// evaluator on generated plans of every shape: a wrong oracle would fail
// every run, but it should fail here first and say why.
func TestOracleAgreesWithQuery(t *testing.T) {
	ds, err := newDataset(tinySize, 3)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(ds.retail)
	if err != nil {
		t.Fatal(err)
	}
	plans := newPlans(rand.New(rand.NewSource(3)), orc, 50)
	if len(plans) != 50 {
		t.Fatalf("%d plans, want 50", len(plans))
	}
	for _, p := range plans {
		got, err := query.RunCtx(context.Background(), ds.retail.Object, p.text)
		if err != nil {
			t.Fatalf("%s: %v", p.text, err)
		}
		if err := orc.answer(p.spec).equal(flatten(got)); err != nil {
			t.Errorf("%s: %v", p.text, err)
		}
	}
	// And the coded group-by the build check uses.
	in := ds.retail.Input
	if got, want := groupBy(in.Card, in.Rows, in.Vals, 0)[0], total(in.Vals); got != want {
		t.Errorf("apex %v, want %v", got, want)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([..], n=4) gives [2.75, 5.5, 8.25] and
	// [15.0, 30.0, 50.0].
	for _, c := range []struct {
		values []float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{40, 10, 20, 60, 30}, (50.0 - 15.0) / 30},
		{[]float64{5}, 0},
	} {
		if got := spread(c.values); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.values, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, noisy bool, p50 float64) string {
		set := resultSet{}
		for _, w := range workloads() {
			vals := map[string]float64{}
			for _, d := range endToEnd {
				vals[d.name] = 10
			}
			vals["read_p50_ms"] = p50
			set[w] = &result{Workload: w, Noisy: noisy, Correct: true, Attempted: 1, Metrics: report(endToEnd, vals)}
		}
		raw, err := json.Marshal(resultFile{Sets: []resultSet{set, set}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", false, 10)
	for _, c := range []struct {
		change   string
		breached bool
		verdict  string
	}{
		{write("same.json", false, 10.1), false, " ok"},
		{write("slow.json", false, 20), true, "BREACH"},
		{write("noisy.json", true, 10.1), false, "unresolved"},
	} {
		var out bytes.Buffer
		breached, err := compareFiles(&out, "../BENCHMARK.json", parent, c.change)
		if err != nil {
			t.Fatal(err)
		}
		if breached != c.breached || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: breached %v, want %v, and %q in:\n%s", c.change, breached, c.breached, c.verdict, out.String())
		}
	}
}
