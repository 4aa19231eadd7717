// Command statcli loads a dataset — a built-in demo or a CSV file — into a
// statistical object and runs concise statistical queries against it
// (Section 5.1's automatic aggregation), optionally rendering 2-D tables
// with marginals.
//
// Usage:
//
//	statcli -demo employment 'SHOW employment WHERE year = 1992'
//	statcli -demo retail -schema
//	statcli -demo employment -table 'sex,year:profession'
//	statcli -csv sales.csv -dims product,region -measure 'amount:sum:flow' \
//	        'SHOW amount BY region'
//
// CSV files need a header row; dimension columns hold category values, the
// measure column numbers.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"statcube"
	"statcube/internal/budget"
	"statcube/internal/cube"
	"statcube/internal/parallel"
	"statcube/internal/qlog"
	"statcube/internal/snapshot"
	"statcube/internal/workload"
	"statcube/internal/writer"
)

// Exit codes, one per failure class, so scripts and the CI chaos job can
// tell a budget refusal from corruption without parsing stderr. Listed
// in -h output.
const (
	exitOK       = 0 // success
	exitUsage    = 1 // bad invocation, unloadable input, query error
	exitBudget   = 2 // a resource budget refused the work (ErrBudgetExceeded)
	exitCanceled = 3 // interrupted or deadline exceeded (ErrCanceled)
	exitPanic    = 4 // a worker panic was contained (ErrWorkerPanic)
	exitCorrupt  = 5 // no loadable snapshot generation (ErrCorrupt)
)

// exitCode maps an error onto the exit-code taxonomy via errors.Is —
// the CLI surface of the engine's typed-error discipline.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, budget.ErrBudgetExceeded):
		return exitBudget
	case budget.IsCanceled(err):
		return exitCanceled
	case errors.Is(err, parallel.ErrWorkerPanic):
		return exitPanic
	case errors.Is(err, snapshot.ErrCorrupt):
		return exitCorrupt
	default:
		return exitUsage
	}
}

func main() {
	demo := flag.String("demo", "", "built-in dataset: employment, retail, census, hmo")
	csvPath := flag.String("csv", "", "load a CSV file (header row required)")
	dims := flag.String("dims", "", "comma-separated dimension columns for -csv")
	measure := flag.String("measure", "", "measure spec for -csv: name:func:type (func: sum|count|avg|min|max; type: flow|stock|vpu)")
	tableSpec := flag.String("table", "", "render a 2-D table: rowdims:coldims (comma-separated)")
	showSchema := flag.Bool("schema", false, "print the schema graph and conceptual structure")
	list := flag.Bool("list", false, "list the built-in demo datasets (directory-style)")
	explain := flag.Bool("explain", false, "print an EXPLAIN ANALYZE span tree for each query")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address and stay up after the work")
	timeout := flag.Duration("timeout", 0, "per-query deadline (e.g. 500ms, 2s); 0 means none")
	maxBytes := flag.Int64("max-bytes", 0, "per-query memory budget in bytes; 0 means unlimited")
	snapshotDir := flag.String("snapshot-dir", "", "durable cube snapshots: load the dataset's newest good generation (recovering past corrupt ones), else build the cube and save it")
	appendCSV := flag.String("append", "", "offline load: append facts from a CSV (one column per dimension's leaf value in schema order, then the measure value; optional header) into -snapshot-dir as one crash-atomic load, publishing a new generation")
	qlogPath := flag.String("qlog", "", "append one NDJSON flight record per query to this file (analyze with statprof)")
	slowMS := flag.Int64("slow-ms", 0, "report queries slower than this many milliseconds on stderr (and mark them slow in -qlog)")
	history := flag.Int("history", 0, "after the queries, print the last n recorded flights (EXPLAIN history)")
	usage := flag.Usage
	flag.Usage = func() {
		usage()
		fmt.Fprintf(flag.CommandLine.Output(), `
Exit codes:
  %d  success
  %d  bad invocation, unloadable input, or query error
  %d  resource budget exceeded (-max-bytes)
  %d  canceled: interrupt or -timeout deadline
  %d  a worker panic was contained and reported
  %d  snapshot corrupt: no loadable generation in -snapshot-dir
`, exitOK, exitUsage, exitBudget, exitCanceled, exitPanic, exitCorrupt)
	}
	flag.Parse()

	// Interrupts cancel the in-flight query (and, later, the metrics wait
	// loop) instead of killing the process mid-scan: the engine unwinds with
	// ErrCanceled and partial state is discarded.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Any flight-recorder flag turns the process-wide recorder on; the
	// engine's entry points then log one record per query. The NDJSON sink
	// writes whole lines through a single Write each, so no flush is owed
	// on the os.Exit paths — a torn final line is the worst case, and
	// statprof skips and counts torn lines by design.
	if *qlogPath != "" || *slowMS > 0 || *history > 0 {
		rec := qlog.Default()
		rec.SetEnabled(true)
		if *qlogPath != "" {
			f, err := os.OpenFile(*qlogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "statcli:", err)
				os.Exit(1)
			}
			defer f.Close()
			rec.SetSink(f, 1)
		}
		if *slowMS > 0 {
			rec.SetSlowThreshold(time.Duration(*slowMS) * time.Millisecond)
			rec.SetOnSlow(func(r *qlog.Record) {
				fmt.Fprintf(os.Stderr, "statcli: slow query (%.1fms ≥ %dms): %s [%s]\n",
					float64(r.WallNs)/1e6, *slowMS, flightName(r), r.Outcome)
			})
		}
	}

	var metrics *statcube.MetricsServer
	if *metricsAddr != "" {
		var err error
		metrics, err = statcube.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "statcli:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "statcli: serving metrics on http://%s/metrics\n", metrics.Addr())
	}

	if *list {
		if err := listDemos(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "statcli:", err)
			os.Exit(1)
		}
		return
	}

	obj, err := loadObject(*demo, *csvPath, *dims, *measure)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statcli:", err)
		os.Exit(1)
	}
	if *snapshotDir != "" {
		sctx := ctx
		if *maxBytes > 0 {
			sctx = statcube.WithGovernor(sctx, statcube.NewGovernor(statcube.Limits{MaxBytes: *maxBytes}))
		}
		if err := snapshotCube(sctx, *snapshotDir, snapshotName(*demo, *csvPath), obj, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "statcli:", err)
			os.Exit(exitCode(err))
		}
	}
	if *appendCSV != "" {
		if *snapshotDir == "" {
			fmt.Fprintln(os.Stderr, "statcli: -append requires -snapshot-dir (the load publishes a generation there)")
			os.Exit(exitUsage)
		}
		actx := ctx
		if *maxBytes > 0 {
			actx = statcube.WithGovernor(actx, statcube.NewGovernor(statcube.Limits{MaxBytes: *maxBytes}))
		}
		if err := appendLoad(actx, *snapshotDir, snapshotName(*demo, *csvPath), obj, *appendCSV, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "statcli:", err)
			os.Exit(exitCode(err))
		}
	}
	if *showSchema {
		fmt.Print(obj.Schema().String())
		fmt.Println()
		fmt.Print(obj)
		fmt.Printf("cells: %d\n", obj.Cells())
	}
	if *tableSpec != "" {
		layout, err := parseLayout(*tableSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "statcli:", err)
			os.Exit(1)
		}
		topts := statcube.TableOptions{Marginals: true}
		if ms := obj.Measures(); len(ms) > 1 {
			topts.Measure = ms[0].Name // default to the first measure
		}
		out, err := statcube.RenderTable(obj, layout, topts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "statcli:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	}
	for _, q := range flag.Args() {
		// Each query gets its own deadline and budget under the
		// interrupt-cancelable root context.
		qctx := ctx
		if *timeout > 0 {
			var cancel context.CancelFunc
			qctx, cancel = context.WithTimeout(qctx, *timeout)
			defer cancel()
		}
		if *maxBytes > 0 {
			qctx = statcube.WithGovernor(qctx, statcube.NewGovernor(statcube.Limits{MaxBytes: *maxBytes}))
		}
		if *explain {
			res, span, err := statcube.QueryExplainCtx(qctx, obj, q)
			fmt.Printf("> %s\n", q)
			fmt.Print(span.Render(statcube.SpanRenderOptions{Durations: true}))
			fmt.Printf("cells scanned: %d\n", span.SumInt("cells_scanned"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "statcli: %q: %v\n", q, err)
				os.Exit(exitCode(err))
			}
			printCells(res)
			continue
		}
		res, err := statcube.QueryCtx(qctx, obj, q)
		if err != nil {
			fmt.Fprintf(os.Stderr, "statcli: %q: %v\n", q, err)
			os.Exit(exitCode(err))
		}
		fmt.Printf("> %s\n", q)
		printCells(res)
	}
	if *history > 0 {
		printHistory(os.Stdout, *history)
	}
	if metrics != nil {
		// Stay up until interrupted, then drain connections gracefully
		// instead of dropping them mid-response.
		fmt.Fprintln(os.Stderr, "statcli: metrics endpoint up; interrupt to exit")
		<-ctx.Done()
		stop()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := metrics.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "statcli: metrics shutdown:", err)
			os.Exit(1)
		}
	}
	if *demo == "" && *csvPath == "" {
		flag.Usage()
	}
}

// flightName picks the most descriptive identity a record carries: the
// fingerprint when the plan parsed, else the raw text, else the kind.
func flightName(r *qlog.Record) string {
	if r.Fingerprint != "" {
		return r.Fingerprint
	}
	if r.Text != "" {
		return r.Text
	}
	return r.Kind
}

// printHistory renders the recorder's most recent n flights, newest last —
// the EXPLAIN history: explain-traced runs carry their span tree, which is
// reprinted verbatim under the summary line.
func printHistory(w io.Writer, n int) {
	recs := qlog.Default().Snapshot()
	if len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	fmt.Fprintf(w, "flight history (%d of %d recorded):\n", len(recs), qlog.Default().Len())
	for _, r := range recs {
		fmt.Fprintf(w, "  #%d %s %.1fms [%s] %s\n", r.Seq, r.Kind, float64(r.WallNs)/1e6, r.Outcome, flightName(&r))
		if r.Plan != "" {
			for _, line := range strings.Split(strings.TrimRight(r.Plan, "\n"), "\n") {
				fmt.Fprintln(w, "      "+line)
			}
		}
	}
}

// snapshotName derives the store name for a dataset: the demo name, the
// CSV base name, or the default demo. Snapshot names admit no dots or
// separators, so anything else becomes a dash.
func snapshotName(demo, csvPath string) string {
	name := demo
	if name == "" && csvPath != "" {
		name = strings.TrimSuffix(filepath.Base(csvPath), filepath.Ext(csvPath))
	}
	if name == "" {
		name = "employment"
	}
	clean := []byte(name)
	for i, c := range clean {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_') {
			clean[i] = '-'
		}
	}
	return string(clean)
}

// snapshotCube is the -snapshot-dir behavior: load the newest good cube
// generation for the dataset, recovering past corrupt ones; if none
// exists yet, build the full cube from the object and save it
// crash-atomically. Every path reports what happened on w, and every
// failure keeps its type so main can map it to an exit code.
func snapshotCube(ctx context.Context, dir, name string, obj *statcube.StatObject, w io.Writer) error {
	st, err := snapshot.OpenStore(dir)
	if err != nil {
		return err
	}
	v, gen, err := cube.LoadViews(ctx, st, name)
	if err == nil {
		fmt.Fprintf(w, "statcli: snapshot: loaded %q generation %d (%d views, total %s)\n",
			name, gen, len(v.Masks()), strconv.FormatFloat(viewTotal(v), 'f', -1, 64))
		return nil
	}
	if !errors.Is(err, snapshot.ErrNotFound) {
		return err
	}
	in, err := cubeInput(obj)
	if err != nil {
		return err
	}
	v, err = cube.BuildROLAPSmallestParentCtx(ctx, in, cube.Options{})
	if err != nil {
		return err
	}
	gen, err = cube.SaveViews(ctx, st, name, v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "statcli: snapshot: built and saved %q generation %d\n", name, gen)
	return nil
}

// viewTotal is a loaded cube's grand total: its coarsest stored view
// summed in key order, so the figure is the same on every run.
func viewTotal(v *cube.Views) float64 {
	masks := v.Masks()
	if len(masks) == 0 {
		return 0
	}
	view := v.View(masks[0])
	keys := make([]uint64, 0, len(view))
	for k := range view {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var total float64
	for _, k := range keys {
		total += view[k]
	}
	return total
}

// cubeInput codes a statistical object's cells into a cube fact table
// (moved to workload so the daemon's write path shares the coding).
func cubeInput(obj *statcube.StatObject) (*cube.Input, error) {
	return workload.CubeInputFromObject(obj)
}

// appendLoad is the -append behavior: an offline load through the same
// write path the daemon uses. The CSV's dimension values are coded
// through the object's leaf dictionaries, the batch folds into the
// store's newest cube generation (delta-maintaining every view it
// carries), and the result publishes as the next crash-atomic
// generation — a failed or interrupted load leaves the store exactly as
// it was.
func appendLoad(ctx context.Context, dir, name string, obj *statcube.StatObject, csvPath string, w io.Writer) error {
	dims := obj.Schema().Dimensions()
	if len(dims) == 0 {
		return fmt.Errorf("object has no dimensions to append into")
	}
	code := make([]map[string]int, len(dims))
	for i, d := range dims {
		vals := d.Class.LeafLevel().Values
		code[i] = make(map[string]int, len(vals))
		for j, v := range vals {
			code[i][v] = j
		}
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	rdr := csv.NewReader(f)
	rdr.TrimLeadingSpace = true
	records, err := rdr.ReadAll()
	if err != nil {
		return fmt.Errorf("reading %s: %w", csvPath, err)
	}
	var rows [][]int
	var vals []float64
	for ri, rec := range records {
		if len(rec) != len(dims)+1 {
			return fmt.Errorf("%s row %d has %d fields, want %d dims + 1 value", csvPath, ri+1, len(rec), len(dims))
		}
		row := make([]int, len(dims))
		bad := false
		for i := range dims {
			c, ok := code[i][rec[i]]
			if !ok {
				bad = true
				break
			}
			row[i] = c
		}
		if bad {
			if ri == 0 {
				continue // header row
			}
			return fmt.Errorf("%s row %d: values do not match the object's leaf levels", csvPath, ri+1)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[len(dims)]), 64)
		if err != nil {
			return fmt.Errorf("%s row %d: value %q: %w", csvPath, ri+1, rec[len(dims)], err)
		}
		rows = append(rows, row)
		vals = append(vals, v)
	}
	if len(rows) == 0 {
		return fmt.Errorf("%s holds no data rows", csvPath)
	}
	st, err := snapshot.OpenStore(dir)
	if err != nil {
		return err
	}
	base, err := cubeInput(obj)
	if err != nil {
		return err
	}
	wr, err := writer.Open(ctx, writer.Config{Store: st, Name: name, Base: base})
	if err != nil {
		return err
	}
	if err := wr.Append(ctx, rows, vals); err != nil {
		return err
	}
	fmt.Fprintf(w, "statcli: append: loaded %d rows from %s as %q generation %d\n", len(rows), csvPath, name, wr.Generation())
	return wr.Close(ctx)
}

// printCells dumps a result object as "coords = value" lines.
func printCells(o *statcube.StatObject) {
	measures := o.Measures()
	o.ForEach(func(coords []statcube.Value, vals []float64) bool {
		var parts []string
		for i, d := range o.Schema().Dimensions() {
			parts = append(parts, fmt.Sprintf("%s=%s", d.Name, coords[i]))
		}
		line := strings.Join(parts, " ")
		for i, m := range measures {
			line += fmt.Sprintf("  %s=%s", m.Name, strconv.FormatFloat(vals[i], 'f', -1, 64))
		}
		fmt.Println(" ", line)
		return true
	})
}

func parseLayout(spec string) (statcube.Layout2D, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return statcube.Layout2D{}, fmt.Errorf("layout must be rowdims:coldims, got %q", spec)
	}
	return statcube.Layout2D{
		Rows: strings.Split(parts[0], ","),
		Cols: strings.Split(parts[1], ","),
	}, nil
}

func loadObject(demo, csvPath, dims, measure string) (*statcube.StatObject, error) {
	switch {
	case demo != "" && csvPath != "":
		return nil, fmt.Errorf("use either -demo or -csv, not both")
	case demo != "":
		return workload.Demo(demo)
	case csvPath != "":
		return loadCSV(csvPath, dims, measure)
	default:
		return workload.Demo("employment")
	}
}

// demoSubjects maps the built-in datasets into a subject directory, the
// [CS81]-style organization the catalog provides.
var demoSubjects = map[string]struct{ subject, desc string }{
	"employment": {"socio-economic/labor", "Figure 1: employment in California by sex, year, profession"},
	"retail":     {"business/retail", "Figure 2: quantity sold by product, store, day"},
	"census":     {"socio-economic/census", "synthetic census macro-data over a county→state hierarchy"},
	"hmo":        {"health/hmo", "visit costs under a non-strict physician→specialty classification"},
}

// listDemos renders the built-in datasets as a catalog directory listing.
func listDemos(w io.Writer) error {
	cat := statcube.NewCatalog()
	for name, meta := range demoSubjects {
		obj, err := workload.Demo(name)
		if err != nil {
			return err
		}
		if err := cat.Register(statcube.CatalogEntry{
			Name: name, Subject: meta.subject, Description: meta.desc, Object: obj,
		}); err != nil {
			return err
		}
	}
	for _, subject := range cat.Subjects() {
		fmt.Fprintln(w, subject)
		for _, name := range cat.UnderSubject(subject) {
			desc, err := cat.Describe(name)
			if err != nil {
				return err
			}
			for _, line := range strings.Split(strings.TrimRight(desc, "\n"), "\n") {
				fmt.Fprintln(w, "  "+line)
			}
		}
	}
	return nil
}

// loadCSV builds a statistical object from a CSV file: the named dims
// become flat dimensions (values discovered from the data) and the measure
// column is observed per row.
func loadCSV(path, dims, measureSpec string) (*statcube.StatObject, error) {
	if dims == "" || measureSpec == "" {
		return nil, fmt.Errorf("-csv needs -dims and -measure")
	}
	m, err := parseMeasure(measureSpec)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := csv.NewReader(f)
	header, err := rd.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	colIdx := map[string]int{}
	for i, h := range header {
		colIdx[strings.TrimSpace(h)] = i
	}
	dimNames := strings.Split(dims, ",")
	for _, d := range dimNames {
		if _, ok := colIdx[d]; !ok {
			return nil, fmt.Errorf("dimension column %q not in header %v", d, header)
		}
	}
	mIdx, ok := colIdx[m.Name]
	if !ok && m.Func != statcube.Count {
		return nil, fmt.Errorf("measure column %q not in header %v", m.Name, header)
	}
	// One pass codes each row: a dimension's values take ordinals in order
	// of first appearance, which becomes their classification order.
	var codes []int    // len(dimNames) ordinals per row
	var vals []float64 // the measure column, unless the measure counts rows
	var valErr error   // the first bad measure value, reported once the schema stands
	code := make([]map[string]int, len(dimNames))
	valueOrder := make([][]statcube.Value, len(dimNames))
	for i := range code {
		code[i] = map[string]int{}
	}
	for ri := 0; ; ri++ {
		rec, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		for i, d := range dimNames {
			v := strings.TrimSpace(rec[colIdx[d]])
			c, ok := code[i][v]
			if !ok {
				c = len(valueOrder[i])
				code[i][v] = c
				valueOrder[i] = append(valueOrder[i], v)
			}
			codes = append(codes, c)
		}
		if m.Func != statcube.Count {
			x, err := strconv.ParseFloat(strings.TrimSpace(rec[mIdx]), 64)
			if err != nil && valErr == nil {
				valErr = fmt.Errorf("row %d: bad measure value %q", ri+2, rec[mIdx])
			}
			vals = append(vals, x)
		}
	}
	var sdims []statcube.Dimension
	for i, d := range dimNames {
		sdims = append(sdims, statcube.FlatDimension(d, valueOrder[i]...))
	}
	sch, err := statcube.NewSchema(path, sdims...)
	if err != nil {
		return nil, err
	}
	obj, err := statcube.New(sch, []statcube.Measure{m})
	if err != nil {
		return nil, err
	}
	if valErr != nil {
		return nil, valErr
	}
	nd := len(dimNames)
	rows := make([][]int, len(codes)/nd)
	for r := range rows {
		rows[r] = codes[r*nd : (r+1)*nd : (r+1)*nd]
	}
	var obs map[string][]float64
	if m.Func != statcube.Count {
		obs = map[string][]float64{m.Name: vals}
	}
	if err := obj.ObserveRows(rows, obs); err != nil {
		return nil, err
	}
	return obj, nil
}

func parseMeasure(spec string) (statcube.Measure, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return statcube.Measure{}, fmt.Errorf("measure spec must be name:func:type, got %q", spec)
	}
	m := statcube.Measure{Name: parts[0]}
	switch parts[1] {
	case "sum":
		m.Func = statcube.Sum
	case "count":
		m.Func = statcube.Count
	case "avg":
		m.Func = statcube.Avg
	case "min":
		m.Func = statcube.Min
	case "max":
		m.Func = statcube.Max
	default:
		return m, fmt.Errorf("unknown function %q", parts[1])
	}
	switch parts[2] {
	case "flow":
		m.Type = statcube.Flow
	case "stock":
		m.Type = statcube.Stock
	case "vpu":
		m.Type = statcube.ValuePerUnit
	default:
		return m, fmt.Errorf("unknown measure type %q", parts[2])
	}
	return m, nil
}
