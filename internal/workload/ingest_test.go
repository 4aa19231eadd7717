package workload

import (
	"errors"
	"math"
	"slices"
	"testing"

	"statcube/internal/core"
	"statcube/internal/cube"
	"statcube/internal/hierarchy"
	"statcube/internal/metadata"
)

// recodedInput is the decode-and-re-code path CubeInputFromObject
// replaced: each cell's leaf values looked up in string-keyed maps built
// from the classifications. The coded walk must give the same table.
func recodedInput(t *testing.T, obj *core.StatObject) *cube.Input {
	t.Helper()
	dims := obj.Schema().Dimensions()
	in := &cube.Input{Card: make([]int, len(dims))}
	code := make([]map[core.Value]int, len(dims))
	for i, d := range dims {
		vals := d.Class.LeafLevel().Values
		in.Card[i] = len(vals)
		code[i] = make(map[core.Value]int, len(vals))
		for j, v := range vals {
			code[i][v] = j
		}
	}
	obj.ForEach(func(coords []core.Value, vals []float64) bool {
		row := make([]int, len(dims))
		for i := range dims {
			c, ok := code[i][coords[i]]
			if !ok {
				t.Fatalf("cell value %q not at dimension %s's leaf level", coords[i], dims[i].Name)
			}
			row[i] = c
		}
		in.Rows = append(in.Rows, row)
		in.Vals = append(in.Vals, vals[0])
		return true
	})
	return in
}

// inputsIdentical compares two fact tables row by row, values by bits,
// and requires each row to end at its capacity (rows cut with 3-index
// slices, so appending to one cannot overwrite the next).
func inputsIdentical(t *testing.T, name string, got, want *cube.Input) {
	t.Helper()
	if !slices.Equal(got.Card, want.Card) || len(got.Rows) != len(want.Rows) || len(got.Vals) != len(want.Vals) {
		t.Fatalf("%s: card %v, %d rows, %d vals; want %v, %d, %d",
			name, got.Card, len(got.Rows), len(got.Vals), want.Card, len(want.Rows), len(want.Vals))
	}
	for r := range want.Rows {
		if !slices.Equal(got.Rows[r], want.Rows[r]) || math.Float64bits(got.Vals[r]) != math.Float64bits(want.Vals[r]) {
			t.Fatalf("%s row %d: %v %v, want %v %v", name, r, got.Rows[r], got.Vals[r], want.Rows[r], want.Vals[r])
		}
		if cap(got.Rows[r]) != len(got.Rows[r]) {
			t.Fatalf("%s row %d: capacity %d past its length", name, r, cap(got.Rows[r]))
		}
	}
}

// TestCubeInputFromObjectMatchesRecode: the coded walk gives the table
// the string decode-and-re-code path gave, on retail, census (through the
// bulk census ingest), employment and HMO objects.
func TestCubeInputFromObjectMatchesRecode(t *testing.T) {
	retail, err := NewRetail(60, 12, 90, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	census, err := NewCensus(5000, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	censusObj, err := metadata.MacroFromMicro(census.Micro, census.Schema, []core.Measure{
		{Name: "income", Func: core.Sum, Type: core.Flow},
		{Name: "population", Func: core.Count, Type: core.Stock},
	}, map[string]string{"income": "income", "population": ""})
	if err != nil {
		t.Fatal(err)
	}
	employment, err := NewEmployment()
	if err != nil {
		t.Fatal(err)
	}
	hmo, err := NewHMO(80, 3000, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, obj := range map[string]*core.StatObject{
		"retail": retail.Object, "census": censusObj, "employment": employment, "hmo": hmo.Object,
	} {
		got, err := CubeInputFromObject(obj)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inputsIdentical(t, name, got, recodedInput(t, obj))
	}
}

// TestNewRetailMatchesObserveAt: the retail object loaded as one batch is
// bit for bit the object one ObserveAt per fact builds from the same
// coded facts.
func TestNewRetailMatchesObserveAt(t *testing.T) {
	r, err := NewRetail(100, 20, 180, 30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.MustNew(r.Object.Schema(), r.Object.Measures())
	for i, row := range r.Input.Rows {
		if err := ref.ObserveAt(row, map[string]float64{"quantity sold": r.Input.Vals[i]}); err != nil {
			t.Fatal(err)
		}
	}
	got, want := cellWords(r.Object), cellWords(ref)
	if !slices.Equal(got, want) {
		t.Fatalf("bulk-loaded retail object differs from the ObserveAt build (%d vs %d words)", len(got), len(want))
	}
}

// cellWords is every cell's coordinates and value bits in cell order.
func cellWords(o *core.StatObject) []uint64 {
	var out []uint64
	o.ForEachAt(func(coords []int, vals []float64) bool {
		for _, c := range coords {
			out = append(out, uint64(c))
		}
		for _, v := range vals {
			out = append(out, math.Float64bits(v))
		}
		return true
	})
	return out
}

// TestMacroFromMicroMatchesObserve: the census ingest, coded and loaded as
// one batch, builds the object one Observe per micro row builds, and
// still refuses a row whose value is not in the classification.
func TestMacroFromMicroMatchesObserve(t *testing.T) {
	c, err := NewCensus(4000, 3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	measures := []core.Measure{
		{Name: "income", Func: core.Avg, Type: core.ValuePerUnit},
		{Name: "population", Func: core.Count, Type: core.Stock},
		{Name: "top", Func: core.Max, Type: core.ValuePerUnit},
	}
	got, err := metadata.MacroFromMicro(c.Micro, c.Schema, measures,
		map[string]string{"income": "income", "population": "", "top": "income"})
	if err != nil {
		t.Fatal(err)
	}
	ref := core.MustNew(c.Schema, measures)
	dims := c.Schema.Dimensions()
	income, err := c.Micro.ColIndex("income")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Micro.NumRows(); i++ {
		row := c.Micro.Row(i)
		by := map[string]core.Value{}
		for _, d := range dims {
			ci, err := c.Micro.ColIndex(d.Name)
			if err != nil {
				t.Fatal(err)
			}
			by[d.Name] = row[ci].Str()
		}
		x := row[income].Float()
		if err := ref.Observe(by, map[string]float64{"income": x, "top": x}); err != nil {
			t.Fatal(err)
		}
	}
	if g, w := cellWords(got), cellWords(ref); !slices.Equal(g, w) {
		t.Fatalf("bulk census ingest differs from per-row Observe (%d vs %d words)", len(g), len(w))
	}

	small, err := NewCensus(10, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewCensus(10, 3, 3, 1) // counties the first schema lacks
	if err != nil {
		t.Fatal(err)
	}
	_, err = metadata.MacroFromMicro(other.Micro, small.Schema, measures[1:2], map[string]string{"population": ""})
	if !errors.Is(err, hierarchy.ErrUnknownValue) {
		t.Fatalf("rows outside the classification: %v, want ErrUnknownValue", err)
	}
}
