package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func loadResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series gathers one metric of one workload across a file's result sets,
// and whether any of those runs was noisy or failed.
func (f *resultFile) series(workload, name string) (values []float64, noisy, failed bool) {
	for _, set := range f.Sets {
		r, ok := set[workload]
		if !ok {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			values = append(values, m.Value)
		}
		noisy = noisy || r.Noisy
		failed = failed || !r.Correct
	}
	return values, noisy, failed
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives: the rule the driver accepts a benchmark by.
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// compareFiles prints, for every pairing of workload and end-to-end
// metric, the parent's and the change's medians and how much worse the
// change is, against the bound BENCHMARK.json fixes. A pairing is
// unresolved, not passed, when a run on either side was noisy or the
// parent's own spread exceeds the bound. It reports whether any bound
// was breached or any run failed.
func compareFiles(w io.Writer, specPath, parentPath, changePath string) (breached bool, err error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	parent, err := loadResults(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadResults(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-21s %13s %13s %8s %7s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "spread", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, aNoisy, aFailed := parent.series(wl.Name, m.Name)
			b, bNoisy, bFailed := change.series(wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sprd := spread(a)
			verdict := "ok"
			switch {
			case aFailed || bFailed:
				verdict, breached = "FAILED RUN", true
			case worse > m.Bound:
				verdict, breached = "BREACH", true
			case aNoisy || bNoisy || sprd > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-21s %13.4f %13.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sprd, verdict)
		}
	}
	return breached, nil
}
