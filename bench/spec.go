package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names a metric and its unit. BENCHMARK.json repeats both
// lists with each metric's direction and bound; the self-test holds the
// two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of statcube would see. Every workload
// reports every one of them; what "read", "write" and "recover" mean on
// each workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"read_qps", "1/s"},
	{"write_p50_ms", "ms"},
	{"recover_s", "s"},
	{"store_bytes_per_cell", "B"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics of single layers, from the traced pass.
var perLayer = []metricDef{
	// the run itself
	{"loadgen.late_ms", "ms"},
	{"loadgen.ref_ms", "ms"},
	{"loadgen.calib_drift_pct", "%"},
	{"trace.overhead_pct", "%"},
	// net/http between client and handler
	{"http.rtt_self_us", "us"},
	// serve
	{"serve.hit_us", "us"},
	{"serve.hit_allocs", "count"},
	{"serve.hit_bytes", "B"},
	{"serve.neg_us", "us"},
	{"serve.miss_us", "us"},
	{"serve.miss_allocs", "count"},
	{"serve.miss_self_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_misses", "count"},
	{"serve.cache_evictions", "count"},
	{"serve.shed", "count"},
	{"serve.refill_ms", "ms"},
	{"serve.append_self_ms", "ms"},
	{"serve.append_max_ms", "ms"},
	// query
	{"query.parse_us", "us"},
	{"query.normalize_us", "us"},
	{"query.eval_ms", "ms"},
	{"query.eval_allocs", "count"},
	// core
	{"core.cells_scanned_per_query", "count"},
	{"core.groups_per_query", "count"},
	// writer
	{"writer.append_us", "us"},
	{"writer.flush_ms", "ms"},
	{"writer.flush_self_ms", "ms"},
	{"writer.open_ms", "ms"},
	{"writer.retries", "count"},
	{"writer.write_amp", "ratio"},
	// cube
	{"cube.view_hit_ratio", "ratio"},
	{"cube.answer_us", "us"},
	{"cube.clone_ms", "ms"},
	{"cube.delta_ms", "ms"},
	{"cube.delta_cells_per_row", "count"},
	{"cube.encode_ms", "ms"},
	{"cube.decode_ms", "ms"},
	{"cube.materialize_ms", "ms"},
	{"cube.build_naive_ms", "ms"},
	{"cube.build_naive_allocs", "count"},
	{"cube.build_sp_ms", "ms"},
	{"cube.build_sp_allocs", "count"},
	{"cube.build_molap_ms", "ms"},
	{"cube.build_molap_allocs", "count"},
	{"cube.build_naive_dense_ms", "ms"},
	{"cube.build_sp_dense_ms", "ms"},
	{"cube.build_molap_dense_ms", "ms"},
	// snapshot
	{"snapshot.save_ms", "ms"},
	{"snapshot.load_self_ms", "ms"},
	{"snapshot.bytes_per_gen", "B"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report picks the listed metrics out of the measured values, in list
// order. A listed metric nothing measured reads 0.
func report(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{values[d.name], d.unit}
	}
	return out
}

// spec is BENCHMARK.json, as far as this program reads it.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
