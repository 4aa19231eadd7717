package core

import (
	"errors"
	"math"
	"testing"

	"statcube/internal/hierarchy"
	"statcube/internal/schema"
)

func mustValue(t *testing.T, o *StatObject, measure string, coords map[string]Value) float64 {
	t.Helper()
	got, ok, err := o.CellValue(coords, measure)
	if err != nil {
		t.Fatalf("CellValue(%v): %v", coords, err)
	}
	if !ok {
		t.Fatalf("CellValue(%v): cell empty", coords)
	}
	return got
}

func TestSSelect(t *testing.T) {
	o := retail(t)
	sel, err := o.SSelect("product", "banana")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := sel.Schema().Dimension("product")
	if d.Cardinality() != 1 {
		t.Errorf("restricted cardinality = %d", d.Cardinality())
	}
	if sel.Cells() != 4 {
		t.Errorf("Cells = %d, want 4 banana cells", sel.Cells())
	}
	total, _ := sel.Total("quantity sold")
	if total != 42 {
		t.Errorf("banana total = %v, want 42", total)
	}
	// Original untouched.
	if o.Cells() != 7 {
		t.Errorf("original mutated: %d cells", o.Cells())
	}
	// Errors.
	if _, err := o.SSelect("nope", "x"); !errors.Is(err, schema.ErrUnknownDimension) {
		t.Errorf("unknown dim err = %v", err)
	}
	if _, err := o.SSelect("product", "durian"); !errors.Is(err, hierarchy.ErrUnknownValue) {
		t.Errorf("unknown value err = %v", err)
	}
	if _, err := o.SSelect("product"); err == nil {
		t.Error("empty selection should fail")
	}
}

func TestSSelectLevel(t *testing.T) {
	o := employment(t)
	eng, err := o.SSelectLevel("profession", "professional class", "engineer")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := eng.Schema().Dimension("profession")
	if d.Cardinality() != 2 {
		t.Errorf("engineer professions = %d, want 2", d.Cardinality())
	}
	total, _ := eng.Total("employment")
	want := 197700.0 + 241100 + 209900 + 278000 + 25800 + 112000 + 28900 + 127600
	if total != want {
		t.Errorf("engineer total = %v, want %v", total, want)
	}
	if _, err := o.SSelectLevel("profession", "nope", "x"); !errors.Is(err, hierarchy.ErrUnknownLevel) {
		t.Errorf("unknown level err = %v", err)
	}
}

func TestSSelectByProperty(t *testing.T) {
	cls := hierarchy.NewBuilder("product", "product", "tv-1", "tv-2").
		Property("tv-1", "brand", "Sony").
		Property("tv-2", "brand", "Sanyo").
		MustBuild()
	sch := schema.MustNew("sales", schema.Dimension{Name: "product", Class: cls},
		schema.Dimension{Name: "q", Class: hierarchy.FlatClassification("q", "q1")})
	o := MustNew(sch, []Measure{{Name: "sales", Func: Sum, Type: Flow}})
	_ = o.SetCell(v("product", "tv-1", "q", "q1"), map[string]float64{"sales": 10})
	_ = o.SetCell(v("product", "tv-2", "q", "q1"), map[string]float64{"sales": 20})
	sanyo, err := o.SSelectByProperty("product", "brand", "Sanyo")
	if err != nil {
		t.Fatal(err)
	}
	total, _ := sanyo.Total("sales")
	if total != 20 {
		t.Errorf("Sanyo total = %v", total)
	}
	if _, err := o.SSelectByProperty("product", "brand", "Zenith"); err == nil {
		t.Error("no matching values should fail")
	}
}

func TestDice(t *testing.T) {
	o := retail(t)
	diced, err := o.Dice(map[string][]Value{
		"product": {"banana"},
		"day":     {"nov-12", "nov-13"},
	})
	if err != nil {
		t.Fatal(err)
	}
	total, _ := diced.Total("quantity sold")
	if total != 35 { // 10+20+5
		t.Errorf("diced total = %v, want 35", total)
	}
	if _, err := o.Dice(map[string][]Value{"nope": {"x"}}); err == nil {
		t.Error("unknown dim should fail")
	}
}

func TestSProject(t *testing.T) {
	o := retail(t)
	p, err := o.SProject("day")
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().NumDims() != 2 {
		t.Errorf("dims after project = %d", p.Schema().NumDims())
	}
	got := mustValue(t, p, "quantity sold", v("product", "banana", "store", "sea-1"))
	if got != 30 { // 10+20
		t.Errorf("banana/sea-1 = %v, want 30", got)
	}
	total, _ := p.Total("quantity sold")
	if total != 55 {
		t.Errorf("projected total = %v", total)
	}
	// Projecting everything away is rejected.
	if _, err := o.SProject("product", "store", "day"); err == nil {
		t.Error("projecting all dims should fail")
	}
	// No-op projection returns the same object.
	same, err := o.SProject()
	if err != nil || same != o {
		t.Errorf("empty SProject = %v, %v", same, err)
	}
}

func TestSProjectStockOverTimeRejected(t *testing.T) {
	o := employment(t)
	// Employment is a Stock measure; summing over the temporal year
	// dimension is meaningless (Section 3.3.2).
	if _, err := o.SProject("year"); !errors.Is(err, ErrNotSummarizable) {
		t.Errorf("stock-over-time err = %v, want ErrNotSummarizable", err)
	}
	// Summing over sex is fine.
	if _, err := o.SProject("sex"); err != nil {
		t.Errorf("stock over non-temporal dim: %v", err)
	}
}

func TestSProjectVPURejected(t *testing.T) {
	sch := schema.MustNew("x",
		schema.Dimension{Name: "a", Class: hierarchy.FlatClassification("a", "1", "2")},
		schema.Dimension{Name: "b", Class: hierarchy.FlatClassification("b", "1")})
	o := MustNew(sch, []Measure{{Name: "price", Func: Sum, Type: ValuePerUnit}})
	if _, err := o.SProject("a"); !errors.Is(err, ErrNotSummarizable) {
		t.Errorf("VPU sum err = %v", err)
	}
	// But min/max/avg of a VPU measure are fine.
	o2 := MustNew(sch, []Measure{{Name: "price", Func: Avg, Type: ValuePerUnit}})
	if _, err := o2.SProject("a"); err != nil {
		t.Errorf("VPU avg: %v", err)
	}
}

func TestSAggregate(t *testing.T) {
	o := retail(t)
	up, err := o.SAggregate("store", "city")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := up.Schema().Dimension("store")
	if d.Class.LeafLevel().Name != "city" {
		t.Errorf("leaf level after rollup = %q", d.Class.LeafLevel().Name)
	}
	got := mustValue(t, up, "quantity sold", v("product", "banana", "store", "seattle", "day", "nov-12"))
	if got != 15 { // sea-1:10 + sea-2:5
		t.Errorf("seattle nov-12 banana = %v, want 15", got)
	}
	// Totals preserved by a strict complete rollup.
	ta, _ := o.Total("quantity sold")
	tb, _ := up.Total("quantity sold")
	if ta != tb {
		t.Errorf("rollup changed total: %v -> %v", ta, tb)
	}
	// Rolling up to the leaf level is a no-op returning the same object.
	same, err := o.SAggregate("store", "store")
	if err != nil || same != o {
		t.Errorf("no-op rollup = %v, %v", same, err)
	}
	// Unknown level.
	if _, err := o.SAggregate("store", "galaxy"); !errors.Is(err, hierarchy.ErrUnknownLevel) {
		t.Errorf("unknown level err = %v", err)
	}
}

func TestSAggregateNonStrictRejected(t *testing.T) {
	// HMO physicians with multiple specialties (Section 3.3.2).
	phys := hierarchy.NewBuilder("physician", "physician", "dr-a", "dr-b", "dr-c").
		Level("specialty", "oncology", "pulmonology").
		Parent("dr-a", "oncology").
		Parent("dr-b", "oncology").
		Parent("dr-b", "pulmonology").
		Parent("dr-c", "pulmonology").
		MustBuild()
	sch := schema.MustNew("hmo",
		schema.Dimension{Name: "physician", Class: phys},
		schema.Dimension{Name: "year", Class: hierarchy.FlatClassification("year", "1996")})
	o := MustNew(sch, []Measure{{Name: "physicians", Func: Sum, Type: Flow}})
	for _, dr := range []string{"dr-a", "dr-b", "dr-c"} {
		_ = o.SetCell(v("physician", dr, "year", "1996"), map[string]float64{"physicians": 1})
	}
	if _, err := o.SAggregate("physician", "specialty"); !errors.Is(err, ErrNotSummarizable) {
		t.Fatalf("non-strict rollup err = %v, want ErrNotSummarizable", err)
	}
	// Unchecked: dr-b is double counted, total inflates from 3 to 4 — the
	// erroneous result the paper warns about, available only explicitly.
	forced, err := o.SAggregateUnchecked("physician", "specialty")
	if err != nil {
		t.Fatal(err)
	}
	total, _ := forced.Total("physicians")
	if total != 4 {
		t.Errorf("double-counted total = %v, want 4", total)
	}
}

func TestSAggregateIncompleteRejected(t *testing.T) {
	// states→cities where city populations don't cover the state.
	geo := hierarchy.NewBuilder("geo", "city", "sf", "la").
		Level("state", "california").
		Parent("sf", "california").
		Parent("la", "california").
		Incomplete().
		MustBuild()
	sch := schema.MustNew("pop", schema.Dimension{Name: "geo", Class: geo},
		schema.Dimension{Name: "year", Class: hierarchy.FlatClassification("year", "1990")})
	o := MustNew(sch, []Measure{{Name: "population", Func: Sum, Type: Stock}})
	_ = o.SetCell(v("geo", "sf", "year", "1990"), map[string]float64{"population": 700000})
	if _, err := o.SAggregate("geo", "state"); !errors.Is(err, ErrNotSummarizable) {
		t.Errorf("incomplete rollup err = %v", err)
	}
	if _, err := o.SAggregateUnchecked("geo", "state"); err != nil {
		t.Errorf("unchecked rollup: %v", err)
	}
}

func TestSliceAndDrillDown(t *testing.T) {
	o := retail(t)
	sl, err := o.Slice("product", "banana")
	if err != nil {
		t.Fatal(err)
	}
	if sl.Schema().NumDims() != 2 {
		t.Errorf("dims after slice = %d", sl.Schema().NumDims())
	}
	total, _ := sl.Total("quantity sold")
	if total != 42 {
		t.Errorf("banana slice total = %v", total)
	}
	// Drill down recovers the finer object through provenance.
	up, err := o.SAggregate("store", "city")
	if err != nil {
		t.Fatal(err)
	}
	back, err := up.DrillDown()
	if err != nil || back != o {
		t.Errorf("DrillDown = %v, %v", back, err)
	}
	if _, err := o.DrillDown(); !errors.Is(err, ErrNoFinerData) {
		t.Errorf("base DrillDown err = %v", err)
	}
	// Origin bookkeeping.
	orig, op := up.Origin()
	if orig != o || op != "s-aggregate:store:city" {
		t.Errorf("Origin = %v, %q", orig, op)
	}
}

func TestSliceLastDimensionRejected(t *testing.T) {
	sch := schema.MustNew("x", schema.Dimension{Name: "a", Class: hierarchy.FlatClassification("a", "1", "2")})
	o := MustNew(sch, []Measure{{Name: "m", Func: Sum, Type: Flow}})
	if _, err := o.Slice("a", "1"); err == nil {
		t.Error("slicing away the last dimension should fail")
	}
}

func TestDisaggregateByProxy(t *testing.T) {
	// Population known at state level; estimate counties by area proxy
	// (the paper's Section 5.3 example).
	state := hierarchy.FlatClassification("state", "oregon")
	sch := schema.MustNew("pop",
		schema.Dimension{Name: "geo", Class: state},
		schema.Dimension{Name: "year", Class: hierarchy.FlatClassification("year", "1990")})
	o := MustNew(sch, []Measure{{Name: "population", Func: Sum, Type: Stock}})
	_ = o.SetCell(v("geo", "oregon", "year", "1990"), map[string]float64{"population": 3000000})
	finer := hierarchy.NewBuilder("geo", "county", "multnomah", "lane", "harney").
		Level("state", "oregon").
		Parent("multnomah", "oregon").
		Parent("lane", "oregon").
		Parent("harney", "oregon").
		MustBuild()
	est, err := o.DisaggregateByProxy("geo", finer, map[Value]float64{
		"multnomah": 1000, "lane": 2000, "harney": 3000, // areas
	})
	if err != nil {
		t.Fatal(err)
	}
	got := mustValue(t, est, "population", v("geo", "lane", "year", "1990"))
	if math.Abs(got-1000000) > 1e-6 {
		t.Errorf("lane estimate = %v, want 1e6", got)
	}
	// Mass conserved.
	total, _ := est.Total("population")
	if math.Abs(total-3000000) > 1e-6 {
		t.Errorf("estimated total = %v", total)
	}
	// Errors.
	if _, err := o.DisaggregateByProxy("geo", finer, map[Value]float64{"multnomah": 1}); err == nil {
		t.Error("missing proxy weight should fail")
	}
	if _, err := o.DisaggregateByProxy("geo", finer, map[Value]float64{"multnomah": 0, "lane": 0, "harney": 0}); err == nil {
		t.Error("zero proxy weights should fail")
	}
	bad := hierarchy.FlatClassification("county", "x")
	if _, err := o.DisaggregateByProxy("geo", bad, nil); err == nil {
		t.Error("single-level finer classification should fail")
	}
}

// A child under two parents would take a share of each; writing them as
// one cell loses one share, and summing them double counts, so a
// non-strict finer classification is refused.
func TestDisaggregateByProxyRejectsNonStrict(t *testing.T) {
	sch := schema.MustNew("pop",
		schema.Dimension{Name: "geo", Class: hierarchy.FlatClassification("state", "oregon", "washington")})
	o := MustNew(sch, []Measure{{Name: "population", Func: Sum, Type: Stock}})
	_ = o.SetCell(v("geo", "oregon"), map[string]float64{"population": 3000})
	_ = o.SetCell(v("geo", "washington"), map[string]float64{"population": 5000})
	finer := hierarchy.NewBuilder("geo", "county", "a", "b", "c").
		Level("state", "oregon", "washington").
		Parent("a", "oregon").
		Parent("b", "oregon").
		Parent("b", "washington").
		Parent("c", "washington").
		MustBuild()
	est, err := o.DisaggregateByProxy("geo", finer, map[Value]float64{"a": 1, "b": 1, "c": 1})
	if !errors.Is(err, hierarchy.ErrNonStrict) {
		total, _ := est.Total("population")
		t.Fatalf("err = %v (total %v of 8000), want ErrNonStrict", err, total)
	}
}

func TestSUnion(t *testing.T) {
	mkState := func(state string, cells map[string]float64) *StatObject {
		var vals []Value
		for city := range cells {
			vals = append(vals, city)
		}
		// Deterministic order.
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		b := hierarchy.NewBuilder("geo", "city", vals...).Level("state", state)
		for _, city := range vals {
			b.Parent(city, state)
		}
		sch := schema.MustNew("pop",
			schema.Dimension{Name: "geo", Class: b.MustBuild()},
			schema.Dimension{Name: "year", Class: hierarchy.FlatClassification("year", "1990")})
		o := MustNew(sch, []Measure{{Name: "population", Func: Sum, Type: Stock}})
		for city, p := range cells {
			_ = o.SetCell(v("geo", city, "year", "1990"), map[string]float64{"population": p})
		}
		return o
	}
	ca := mkState("california", map[string]float64{"sf": 700000, "la": 3000000})
	or := mkState("oregon", map[string]float64{"portland": 500000})
	u, err := ca.SUnion(or)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := u.Schema().Dimension("geo")
	if d.Cardinality() != 3 {
		t.Errorf("merged cities = %d", d.Cardinality())
	}
	total, _ := u.Total("population")
	if total != 4200000 {
		t.Errorf("union total = %v", total)
	}
	// Rolling the merged object up to states still works.
	states, err := u.SAggregate("geo", "state")
	if err != nil {
		t.Fatal(err)
	}
	got := mustValue(t, states, "population", v("geo", "oregon", "year", "1990"))
	if got != 500000 {
		t.Errorf("oregon = %v", got)
	}
}

func TestSUnionOverlapAgreesAndConflicts(t *testing.T) {
	mk := func(val float64) *StatObject {
		sch := schema.MustNew("x",
			schema.Dimension{Name: "g", Class: hierarchy.FlatClassification("g", "a", "b")})
		o := MustNew(sch, []Measure{{Name: "m", Func: Sum, Type: Flow}})
		_ = o.SetCell(v("g", "a"), map[string]float64{"m": val})
		return o
	}
	// Agreeing overlap unions fine and keeps the cell once.
	u, err := mk(5).SUnion(mk(5))
	if err != nil {
		t.Fatal(err)
	}
	total, _ := u.Total("m")
	if total != 5 {
		t.Errorf("agreeing union total = %v, want 5", total)
	}
	// Conflicting overlap errors.
	if _, err := mk(5).SUnion(mk(7)); !errors.Is(err, ErrUnionConflict) {
		t.Errorf("conflict err = %v", err)
	}
}

func TestSUnionSchemaMismatch(t *testing.T) {
	a := retail(t)
	b := employment(t)
	if _, err := a.SUnion(b); err == nil {
		t.Error("union of incompatible objects should fail")
	}
	// Measure mismatch with same dims.
	sch := schema.MustNew("x", schema.Dimension{Name: "g", Class: hierarchy.FlatClassification("g", "a")})
	o1 := MustNew(sch, []Measure{{Name: "m", Func: Sum, Type: Flow}})
	o2 := MustNew(sch, []Measure{{Name: "m2", Func: Sum, Type: Flow}})
	if _, err := o1.SUnion(o2); err == nil {
		t.Error("measure mismatch should fail")
	}
}

func TestRestrictedSelectionBreaksCompleteness(t *testing.T) {
	o := retail(t)
	// Keep only one of Seattle's two stores; rolling up to city level must
	// now be rejected (the city total would silently miss sea-2).
	sel, err := o.SSelect("store", "sea-1", "tac-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.SAggregate("store", "city"); !errors.Is(err, ErrNotSummarizable) {
		t.Errorf("rollup after partial select err = %v, want ErrNotSummarizable", err)
	}
	// Selecting whole cities keeps completeness.
	sel2, err := o.SSelect("store", "sea-1", "sea-2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel2.SAggregate("store", "city"); err != nil {
		t.Errorf("rollup after whole-city select: %v", err)
	}
}
