package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"statcube"
	"statcube/internal/budget"
	"statcube/internal/cube"
	"statcube/internal/parallel"
	"statcube/internal/snapshot"
	"statcube/internal/workload"
)

func TestParseMeasure(t *testing.T) {
	m, err := parseMeasure("amount:sum:flow")
	if err != nil || m.Name != "amount" || m.Func != statcube.Sum || m.Type != statcube.Flow {
		t.Errorf("parseMeasure = %+v, %v", m, err)
	}
	m, err = parseMeasure("price:avg:vpu")
	if err != nil || m.Func != statcube.Avg || m.Type != statcube.ValuePerUnit {
		t.Errorf("parseMeasure = %+v, %v", m, err)
	}
	for _, bad := range []string{"", "a:b", "a:median:flow", "a:sum:liquid", "a:sum:flow:extra"} {
		if _, err := parseMeasure(bad); err == nil {
			t.Errorf("parseMeasure(%q) should fail", bad)
		}
	}
}

func TestParseLayout(t *testing.T) {
	l, err := parseLayout("a,b:c")
	if err != nil || len(l.Rows) != 2 || len(l.Cols) != 1 {
		t.Errorf("parseLayout = %+v, %v", l, err)
	}
	if _, err := parseLayout("no-colon"); err == nil {
		t.Error("missing colon should fail")
	}
}

func TestLoadDemos(t *testing.T) {
	for _, name := range []string{"employment", "retail", "census", "hmo"} {
		obj, err := workload.Demo(name)
		if err != nil {
			t.Fatalf("workload.Demo(%s): %v", name, err)
		}
		if obj.Cells() == 0 {
			t.Errorf("demo %s is empty", name)
		}
	}
	if _, err := workload.Demo("nope"); err == nil {
		t.Error("unknown demo should fail")
	}
}

func TestLoadObjectValidation(t *testing.T) {
	if _, err := loadObject("employment", "x.csv", "", ""); err == nil {
		t.Error("demo+csv should fail")
	}
	// Default falls back to employment.
	obj, err := loadObject("", "", "", "")
	if err != nil || obj.Cells() == 0 {
		t.Errorf("default load: %v", err)
	}
}

func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sales.csv")
	csv := "product,region,amount\napple,west,10\napple,east,5\nbanana,west,7\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	obj, err := loadCSV(path, "product,region", "amount:sum:flow")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Cells() != 3 {
		t.Errorf("cells = %d", obj.Cells())
	}
	v, err := statcube.QueryScalar(obj, "SHOW amount WHERE product = apple")
	if err != nil || v != 15 {
		t.Errorf("query = %v, %v", v, err)
	}
	// Count measure needs no column.
	obj, err = loadCSV(path, "product,region", "n:count:flow")
	if err != nil {
		t.Fatal(err)
	}
	total, _ := obj.Total("n")
	if total != 3 {
		t.Errorf("count total = %v", total)
	}
	// Errors.
	if _, err := loadCSV(path, "", "amount:sum:flow"); err == nil {
		t.Error("missing dims should fail")
	}
	if _, err := loadCSV(path, "nope", "amount:sum:flow"); err == nil {
		t.Error("unknown dim column should fail")
	}
	if _, err := loadCSV(path, "product", "nope:sum:flow"); err == nil {
		t.Error("unknown measure column should fail")
	}
	if _, err := loadCSV(filepath.Join(dir, "absent.csv"), "product", "amount:sum:flow"); err == nil {
		t.Error("missing file should fail")
	}
	// Bad numeric value.
	bad := filepath.Join(dir, "bad.csv")
	_ = os.WriteFile(bad, []byte("product,amount\nx,notanumber\n"), 0o644)
	if _, err := loadCSV(bad, "product", "amount:sum:flow"); err == nil {
		t.Error("bad numeric should fail")
	}
}

// TestLoadCSVMatchesObserve: the coded CSV load orders each dimension's
// values by first appearance and builds, cell for cell, the object one
// Observe per row builds; a bad value is reported by its row.
func TestLoadCSVMatchesObserve(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sales.csv")
	csv := "region,product,amount\n" +
		"west, pear ,10\nwest,apple,2.5\neast,pear,-4\n north ,fig,1e3\neast,apple,7\nwest,pear,0.1\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	obj, err := loadCSV(path, "product,region", "amount:avg:vpu")
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, d := range obj.Schema().Dimensions() {
		order = append(order, strings.Join(d.Class.LeafLevel().Values, " "))
	}
	if got := strings.Join(order, " | "); got != "pear apple fig | west east north" {
		t.Errorf("leaf order = %q", got)
	}
	ref, err := statcube.New(obj.Schema(), obj.Measures())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][3]string{
		{"pear", "west", "10"}, {"apple", "west", "2.5"}, {"pear", "east", "-4"},
		{"fig", "north", "1e3"}, {"apple", "east", "7"}, {"pear", "west", "0.1"},
	} {
		x, _ := strconv.ParseFloat(row[2], 64)
		if err := ref.Observe(map[string]statcube.Value{"product": row[0], "region": row[1]}, map[string]float64{"amount": x}); err != nil {
			t.Fatal(err)
		}
	}
	var got, want []string
	obj.ForEach(func(c []statcube.Value, v []float64) bool { got = append(got, fmt.Sprint(c, v)); return true })
	ref.ForEach(func(c []statcube.Value, v []float64) bool { want = append(want, fmt.Sprint(c, v)); return true })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cells:\n%v\nwant\n%v", got, want)
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	_ = os.WriteFile(bad, []byte("product,amount\nx,1\ny,2\nx,oops\nz,nope\n"), 0o644)
	if _, err := loadCSV(bad, "product", "amount:sum:flow"); err == nil || !strings.Contains(err.Error(), `row 4: bad measure value "oops"`) {
		t.Errorf("bad value: %v", err)
	}
}

// TestExitCodes: every failure class maps to its documented exit code,
// and wrapping does not confuse the classification.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, exitOK},
		{errors.New("anything else"), exitUsage},
		{fmt.Errorf("wrap: %w", budget.ErrBudgetExceeded), exitBudget},
		{fmt.Errorf("wrap: %w", budget.ErrCanceled), exitCanceled},
		{fmt.Errorf("wrap: %w", parallel.ErrWorkerPanic), exitPanic},
		{&snapshot.CorruptError{Detail: "bad byte"}, exitCorrupt},
		{fmt.Errorf("wrap: %w", snapshot.ErrNotFound), exitUsage},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestSnapshotName(t *testing.T) {
	cases := []struct{ demo, csv, want string }{
		{"retail", "", "retail"},
		{"", "/data/q3.sales.csv", "q3-sales"},
		{"", "", "employment"},
	}
	for _, c := range cases {
		if got := snapshotName(c.demo, c.csv); got != c.want {
			t.Errorf("snapshotName(%q, %q) = %q, want %q", c.demo, c.csv, got, c.want)
		}
	}
}

// TestSnapshotCubeLifecycle: first call builds and saves, second loads;
// a corrupted newest generation is recovered past; an over-tight budget
// surfaces the typed error (exit code 2's cause).
func TestSnapshotCubeLifecycle(t *testing.T) {
	obj, err := workload.Demo("employment")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	var out strings.Builder
	if err := snapshotCube(ctx, dir, "employment", obj, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "built and saved") {
		t.Fatalf("first run should build: %s", out.String())
	}
	out.Reset()
	if err := snapshotCube(ctx, dir, "employment", obj, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "loaded \"employment\" generation 1") {
		t.Fatalf("second run should load: %s", out.String())
	}
	// Save a second generation, corrupt it, and confirm recovery.
	st, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	in, err := cubeInput(obj)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cube.BuildROLAPSmallestParentCtx(ctx, in, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.SaveViews(ctx, st, "employment", v); err != nil {
		t.Fatal(err)
	}
	g2 := filepath.Join(dir, "employment.00000002.snap")
	b, err := os.ReadFile(g2)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(g2, b, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := snapshotCube(ctx, dir, "employment", obj, &out); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !strings.Contains(out.String(), "generation 1") {
		t.Fatalf("should have recovered to generation 1: %s", out.String())
	}
	// A hopeless budget classifies as exitBudget, not a generic failure.
	tight := statcube.WithGovernor(context.Background(),
		statcube.NewGovernor(statcube.Limits{MaxBytes: 1}))
	err = snapshotCube(tight, t.TempDir(), "employment", obj, &out)
	if exitCode(err) != exitBudget {
		t.Fatalf("tight-budget error %v maps to exit %d, want %d", err, exitCode(err), exitBudget)
	}
}

// TestCubeInputMatchesObject: the coded fact table reproduces the
// object's grand total through a cube build.
func TestCubeInputMatchesObject(t *testing.T) {
	obj, err := workload.Demo("employment")
	if err != nil {
		t.Fatal(err)
	}
	in, err := cubeInput(obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Rows) != obj.Cells() {
		t.Fatalf("rows = %d, cells = %d", len(in.Rows), obj.Cells())
	}
	v, err := cube.BuildROLAPSmallestParentCtx(context.Background(), in, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cubeTotal float64
	for _, x := range v.View(0) {
		cubeTotal += x
	}
	m := obj.Measures()[0]
	want, err := obj.Total(m.Name)
	if err != nil {
		t.Fatal(err)
	}
	if diff := cubeTotal - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("cube total %v, object total %v", cubeTotal, want)
	}
}

func TestListDemos(t *testing.T) {
	var buf strings.Builder
	if err := listDemos(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"socio-economic/labor", "employment", "business/retail", "Summary measure"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

// TestAppendLoad: -append codes CSV facts through the object's leaf
// dictionaries, folds them into the stored cube by delta maintenance,
// and publishes the next generation; the reloaded total is the old
// total plus the appended values. A bad CSV leaves the store untouched.
func TestAppendLoad(t *testing.T) {
	obj, err := workload.Demo("employment")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	var out strings.Builder
	if err := snapshotCube(ctx, dir, "employment", obj, &out); err != nil {
		t.Fatal(err)
	}

	dims := obj.Schema().Dimensions()
	var hdr, row1, row2 []string
	for _, d := range dims {
		leaves := d.Class.LeafLevel().Values
		hdr = append(hdr, d.Name)
		row1 = append(row1, leaves[0])
		row2 = append(row2, leaves[len(leaves)-1])
	}
	csvPath := filepath.Join(t.TempDir(), "facts.csv")
	lines := strings.Join(hdr, ",") + ",employment\n" +
		strings.Join(row1, ",") + ",1000\n" +
		strings.Join(row2, ",") + ",500\n"
	if err := os.WriteFile(csvPath, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := appendLoad(ctx, dir, "employment", obj, csvPath, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "generation 2") {
		t.Fatalf("append output: %s", out.String())
	}

	st, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, gen, err := cube.LoadMaterialized(ctx, st, "employment")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("newest generation = %d, want 2", gen)
	}
	// The load published a log record, not a checkpoint: the built cube
	// is still the one checkpoint, and generation 2 is its log's.
	if gens, err := st.Generations("employment"); err != nil || len(gens) != 1 || gens[0] != 1 {
		t.Fatalf("checkpoints = %v (%v), want just the built generation 1", gens, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "employment.00000001.log")); err != nil {
		t.Fatalf("no log beside the checkpoint: %v", err)
	}
	base := 1<<uint(len(dims)) - 1
	view, _, err := m.Answer(base)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range view {
		total += v
	}
	want, err := obj.Total(obj.Measures()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	want += 1500
	if diff := total - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("total after append = %v, want %v", total, want)
	}

	// A CSV with an unknown leaf value fails whole: no generation 3.
	badPath := filepath.Join(t.TempDir(), "bad.csv")
	bad := strings.Join(row1[:len(row1)-1], ",") + ",not-a-leaf,42\n"
	if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendLoad(ctx, dir, "employment", obj, badPath, &out); err == nil {
		t.Fatal("bad CSV accepted")
	}
	if _, gen, err := cube.LoadMaterialized(ctx, st, "employment"); err != nil || gen != 2 {
		t.Fatalf("store after failed append: gen %d err %v, want 2 and nil", gen, err)
	}
}

// TestSnapshotDirSeesAppendedGeneration: -snapshot-dir reads a store
// through the same loader -append's writer recovers with, so a
// generation published only to the log is the one it reports, with the
// appended total.
func TestSnapshotDirSeesAppendedGeneration(t *testing.T) {
	obj, err := workload.Demo("employment")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	dims := obj.Schema().Dimensions()
	var row []string
	for _, d := range dims {
		row = append(row, d.Class.LeafLevel().Values[0])
	}
	csvPath := filepath.Join(t.TempDir(), "facts.csv")
	if err := os.WriteFile(csvPath, []byte(strings.Join(row, ",")+",250\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := appendLoad(ctx, dir, "employment", obj, csvPath, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := snapshotCube(ctx, dir, "employment", obj, &out); err != nil {
		t.Fatal(err)
	}
	want, err := obj.Total(obj.Measures()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	report := fmt.Sprintf("loaded \"employment\" generation 2 (1 views, total %s)", strconv.FormatFloat(want+250, 'f', -1, 64))
	if !strings.Contains(out.String(), report) {
		t.Fatalf("-snapshot-dir after -append reported %q, want %q", out.String(), report)
	}
}
