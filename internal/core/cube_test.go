package core

import (
	"errors"
	"strings"
	"testing"

	"statcube/internal/hierarchy"
	"statcube/internal/schema"
)

func cubeIndex(cells []CubeCell) map[string]float64 {
	m := map[string]float64{}
	for _, c := range cells {
		m[c.GroupingKey()] = c.Vals[0]
	}
	return m
}

func TestCubeSmall(t *testing.T) {
	sch := schema.MustNew("sales",
		schema.Dimension{Name: "state", Class: hierarchy.FlatClassification("state", "CA", "OR")},
		schema.Dimension{Name: "sex", Class: hierarchy.FlatClassification("sex", "m", "f")},
	)
	o := MustNew(sch, []Measure{{Name: "pop", Func: Sum, Type: Flow}})
	_ = o.SetCell(v("state", "CA", "sex", "m"), map[string]float64{"pop": 10})
	_ = o.SetCell(v("state", "CA", "sex", "f"), map[string]float64{"pop": 12})
	_ = o.SetCell(v("state", "OR", "sex", "m"), map[string]float64{"pop": 3})
	cells, err := o.Cube()
	if err != nil {
		t.Fatal(err)
	}
	// 3 base + CA,ALL + OR,ALL + ALL,m + ALL,f + ALL,ALL = 8 rows.
	if len(cells) != 8 {
		t.Fatalf("cube rows = %d, want 8", len(cells))
	}
	idx := cubeIndex(cells)
	checks := map[string]float64{
		"CA|m":    10,
		"CA|f":    12,
		"OR|m":    3,
		"CA|ALL":  22,
		"OR|ALL":  3,
		"ALL|m":   13,
		"ALL|f":   12,
		"ALL|ALL": 25, // the grand total of Figure 15
	}
	for k, want := range checks {
		if got, ok := idx[k]; !ok || got != want {
			t.Errorf("cube[%s] = %v (ok=%v), want %v", k, got, ok, want)
		}
	}
}

func TestCubeDeterministicOrder(t *testing.T) {
	o := retail(t)
	a, err := o.Cube()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := o.Cube()
	if len(a) != len(b) {
		t.Fatal("length differs between runs")
	}
	for i := range a {
		if a[i].GroupingKey() != b[i].GroupingKey() {
			t.Fatal("cube order not deterministic")
		}
	}
	// ALL must sort after concrete values; last row is the grand total.
	last := a[len(a)-1]
	if strings.Trim(last.GroupingKey(), "AL|") != "" {
		t.Errorf("last row = %s, want all-ALL", last.GroupingKey())
	}
}

func TestCubeRejectsNonAdditive(t *testing.T) {
	o := employment(t) // Stock over a temporal dimension
	if _, err := o.Cube(); !errors.Is(err, ErrNotSummarizable) {
		t.Errorf("cube on stock-over-time err = %v", err)
	}
}

func TestCubeMatchesGroupByFaces(t *testing.T) {
	o := retail(t)
	cells, err := o.Cube()
	if err != nil {
		t.Fatal(err)
	}
	idx := cubeIndex(cells)
	// The (product) face of the lattice must match GroupBy("product").
	gb, err := o.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	gb.ForEach(func(coords []Value, vals []float64) bool {
		key := coords[0] + "|ALL|ALL"
		if got := idx[key]; got != vals[0] {
			t.Errorf("cube[%s] = %v, GroupBy = %v", key, got, vals[0])
		}
		return true
	})
	// Grand total matches Total.
	total, _ := o.Total("quantity sold")
	if idx["ALL|ALL|ALL"] != total {
		t.Errorf("grand total %v vs %v", idx["ALL|ALL|ALL"], total)
	}
}

func TestGroupBy(t *testing.T) {
	o := retail(t)
	gb, err := o.GroupBy("product", "day")
	if err != nil {
		t.Fatal(err)
	}
	if gb.Schema().NumDims() != 2 {
		t.Errorf("dims = %d", gb.Schema().NumDims())
	}
	// GroupBy over all dims returns the object itself.
	same, err := o.GroupBy("product", "store", "day")
	if err != nil || same != o {
		t.Errorf("full GroupBy = %v, %v", same, err)
	}
	if _, err := o.GroupBy("nope"); err == nil {
		t.Error("unknown dim should fail")
	}
}

func TestCubeTooManyDims(t *testing.T) {
	dims := make([]schema.Dimension, 21)
	for i := range dims {
		name := string(rune('a' + i))
		dims[i] = schema.Dimension{Name: name, Class: hierarchy.FlatClassification(name, "0", "1")}
	}
	o := MustNew(schema.MustNew("big", dims...), []Measure{{Name: "m", Func: Sum, Type: Flow}})
	if _, err := o.Cube(); err == nil {
		t.Error("21-dim cube should refuse")
	}
}

// Category values may contain "|": two base cells whose values join to the
// same string are still two cube rows, not one merged row.
func TestCubeSeparatorInValues(t *testing.T) {
	sch := schema.MustNew("s",
		schema.Dimension{Name: "x", Class: hierarchy.FlatClassification("x", "a", "a|b")},
		schema.Dimension{Name: "y", Class: hierarchy.FlatClassification("y", "b|c", "c")},
	)
	o := MustNew(sch, []Measure{{Name: "n", Func: Sum, Type: Flow}})
	_ = o.SetCell(v("x", "a", "y", "b|c"), map[string]float64{"n": 1})
	_ = o.SetCell(v("x", "a|b", "y", "c"), map[string]float64{"n": 10})
	cells, err := o.Cube()
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]Value]float64{}
	for _, c := range cells {
		got[[2]Value{c.Coords[0], c.Coords[1]}] = c.Vals[0]
	}
	want := map[[2]Value]float64{
		{"a", "b|c"}: 1, {"a|b", "c"}: 10,
		{"a", All}: 1, {"a|b", All}: 10,
		{All, "b|c"}: 1, {All, "c"}: 10,
		{All, All}: 11,
	}
	if len(cells) != len(want) {
		t.Errorf("cube rows = %d, want %d: %v", len(cells), len(want), cells)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("cube%v = %v (ok=%v), want %v", k, g, ok, w)
		}
	}
}
