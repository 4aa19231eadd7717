// Command bench is statcube's performance ledger: an end-to-end and
// per-layer benchmark of the served read path, the write path and the
// cube builds. It generates a seeded dataset and seeded traffic, drives
// the engine in-process over real loopback TCP (wired as `statd -write
// -snapshot-dir` wires it), checks every answer against an independent
// oracle, and prints every metric by name with its unit.
//
//	go run ./bench -seed 1                  all four workloads, end to end
//	go run ./bench -seed 1 -trace 1         the per-layer pass, with span files
//	go run ./bench -workload cold_read ...  one workload; the last line is JSON
//	go run ./bench -repeat 5 -o a.json      five result sets, saved
//	go run ./bench -compare a.json b.json   deltas against BENCHMARK.json's bounds
//
// README.md in this directory has the workloads, the metrics and what
// each is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads lists every workload by name, in report order.
func workloads() []string {
	names := []string{}
	for _, w := range servedWorkloads {
		names = append(names, w.name)
	}
	return append(names, "bulk_build")
}

// runWorkload runs one workload by name.
func runWorkload(ctx context.Context, name string, cfg runConfig) (*result, error) {
	for i := range servedWorkloads {
		if servedWorkloads[i].name == name {
			return servedWorkloads[i].run(ctx, cfg)
		}
	}
	if name == "bulk_build" {
		return runBulk(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads())
}

// resultSet is one pass over the chosen workloads.
type resultSet map[string]*result

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Trace   bool        `json:"trace"`
	Go      string      `json:"go"`
	NumCPU  int         `json:"nproc"`
	Sets    []resultSet `json:"sets"`
}

// print writes a workload's metrics as a table, by name.
func (r *result) print() {
	verdict := "ok"
	if !r.Correct {
		verdict = "FAILED"
	}
	noisy := ""
	if r.Noisy {
		noisy = "  noisy: the reference kernel's time moved by more than 10% during the run"
	}
	fmt.Printf("%s: %s, %d attempted, %d failed%s\n", r.Workload, verdict, r.Attempted, r.Failed, noisy)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, e := range r.Errors {
		fmt.Printf("  error: %s\n", e)
	}
}

func main() {
	workload := flag.String("workload", "", "run one workload and end with the result as one JSON line; empty runs all four")
	seed := flag.Int64("seed", 1, "seed of the dataset and the traffic")
	seconds := flag.Float64("seconds", 15, "length of each workload's measured window")
	trace := flag.Int("trace", 0, "1 runs the per-layer pass and writes spans to <out>/trace_<workload>.ndjson; 0 measures end to end with tracing off")
	out := flag.String("out", "bench/out", "directory for span files and scratch stores")
	repeat := flag.Int("repeat", 1, "number of result sets to take")
	save := flag.String("o", "", "write the result sets to this file as JSON")
	compare := flag.Bool("compare", false, "compare two result files (arguments: parent.json change.json) against the bounds in -spec")
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark definition -compare takes directions and bounds from")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			os.Exit(2)
		}
		breached, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if breached {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		outDir: *out,
		size:   fullSize,
		cal:    newCalibration(refRows),
	}
	names := workloads()
	if *workload != "" {
		names = []string{*workload}
	}
	file := resultFile{Seed: *seed, Seconds: *seconds, Trace: cfg.trace, Go: runtime.Version(), NumCPU: runtime.NumCPU()}
	failed := false
	var last *result
	for rep := 0; rep < *repeat; rep++ {
		set := resultSet{}
		for _, name := range names {
			res, err := runWorkload(context.Background(), name, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				os.Exit(1)
			}
			res.print()
			set[name] = res
			last = res
			failed = failed || !res.Correct
		}
		file.Sets = append(file.Sets, set)
	}
	if *save != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*save, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if *workload != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}
