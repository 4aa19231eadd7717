package core

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"statcube/internal/hierarchy"
	"statcube/internal/schema"
)

// employment builds the paper's Figure 1 statistical object:
// "Employment in California" by sex by year by profession, with the
// professional-class classification hierarchy. Employment is a Stock
// measure (a headcount snapshot): additive over sex and profession but not
// over the temporal year dimension.
func employment(t testing.TB) *StatObject {
	t.Helper()
	prof := hierarchy.NewBuilder("profession", "profession",
		"chemical engineer", "civil engineer",
		"junior secretary", "executive secretary",
		"elementary teacher", "high school teacher").
		Level("professional class", "engineer", "secretary", "teacher").
		Parent("chemical engineer", "engineer").
		Parent("civil engineer", "engineer").
		Parent("junior secretary", "secretary").
		Parent("executive secretary", "secretary").
		Parent("elementary teacher", "teacher").
		Parent("high school teacher", "teacher").
		MustBuild()
	sch := schema.MustNew("employment in california",
		schema.Dimension{Name: "sex", Class: hierarchy.FlatClassification("sex", "male", "female")},
		schema.Dimension{Name: "year", Class: hierarchy.FlatClassification("year", "1991", "1992"), Temporal: true},
		schema.Dimension{Name: "profession", Class: prof},
	)
	o := MustNew(sch, []Measure{{Name: "employment", Func: Sum, Type: Stock}})
	// A few of Figure 1's (fictitious) numbers.
	cells := []struct {
		sex, year, prof string
		v               float64
	}{
		{"male", "1991", "chemical engineer", 197700},
		{"male", "1991", "civil engineer", 241100},
		{"male", "1992", "chemical engineer", 209900},
		{"male", "1992", "civil engineer", 278000},
		{"male", "1991", "junior secretary", 534300},
		{"male", "1992", "junior secretary", 542100},
		{"female", "1991", "chemical engineer", 25800},
		{"female", "1991", "civil engineer", 112000},
		{"female", "1992", "chemical engineer", 28900},
		{"female", "1992", "civil engineer", 127600},
		{"female", "1991", "elementary teacher", 216071},
		{"female", "1992", "high school teacher", 299344},
	}
	for _, c := range cells {
		err := o.SetCell(map[string]Value{"sex": c.sex, "year": c.year, "profession": c.prof},
			map[string]float64{"employment": c.v})
		if err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// retail builds the Figure 2 OLAP object: quantity sold by product by
// store by day; a Flow measure, additive everywhere.
func retail(t testing.TB) *StatObject {
	t.Helper()
	store := hierarchy.NewBuilder("store", "store", "sea-1", "sea-2", "tac-1").
		Level("city", "seattle", "tacoma").
		Parent("sea-1", "seattle").
		Parent("sea-2", "seattle").
		Parent("tac-1", "tacoma").
		IDDependent().
		MustBuild()
	day := hierarchy.NewBuilder("day", "day", "nov-12", "nov-13", "dec-01").
		Level("month", "nov", "dec").
		Parent("nov-12", "nov").
		Parent("nov-13", "nov").
		Parent("dec-01", "dec").
		IDDependent().
		MustBuild()
	sch := schema.MustNew("retail sales",
		schema.Dimension{Name: "product", Class: hierarchy.FlatClassification("product", "banana", "apple")},
		schema.Dimension{Name: "store", Class: store},
		schema.Dimension{Name: "day", Class: day, Temporal: true},
	)
	o := MustNew(sch, []Measure{{Name: "quantity sold", Unit: "dollars", Func: Sum, Type: Flow}})
	for _, c := range []struct {
		p, s, d string
		v       float64
	}{
		{"banana", "sea-1", "nov-12", 10},
		{"banana", "sea-1", "nov-13", 20},
		{"banana", "sea-2", "nov-12", 5},
		{"banana", "tac-1", "dec-01", 7},
		{"apple", "sea-1", "nov-12", 3},
		{"apple", "tac-1", "nov-13", 4},
		{"apple", "tac-1", "dec-01", 6},
	} {
		if err := o.SetCell(map[string]Value{"product": c.p, "store": c.s, "day": c.d},
			map[string]float64{"quantity sold": c.v}); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func v(names ...string) map[string]Value {
	m := map[string]Value{}
	for i := 0; i+1 < len(names); i += 2 {
		m[names[i]] = names[i+1]
	}
	return m
}

func TestNewValidation(t *testing.T) {
	sch := schema.MustNew("x", schema.Dimension{Name: "a", Class: hierarchy.FlatClassification("a", "1")})
	if _, err := New(nil, []Measure{{Name: "m"}}); err == nil {
		t.Error("nil schema should fail")
	}
	if _, err := New(sch, nil); !errors.Is(err, ErrNoMeasures) {
		t.Errorf("no measures err = %v", err)
	}
	if _, err := New(sch, []Measure{{Name: ""}}); err == nil {
		t.Error("empty measure name should fail")
	}
	if _, err := New(sch, []Measure{{Name: "m"}, {Name: "m"}}); !errors.Is(err, ErrDuplicateMeasure) {
		t.Errorf("duplicate measure err = %v", err)
	}
}

// A cross product wider than 2^64 cells would wrap the linearized cell keys
// and merge distinct cells, so New refuses it; exactly 2^64 still fits.
func TestNewRefusesKeySpaceBeyond64Bits(t *testing.T) {
	flat := func(name string, n int) schema.Dimension {
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = strconv.Itoa(i)
		}
		return schema.Dimension{Name: name, Class: hierarchy.FlatClassification(name, vals...)}
	}
	wide := schema.MustNew("wide", flat("a", 8193), flat("b", 8193), flat("c", 8193), flat("d", 8193), flat("e", 8193))
	if _, err := New(wide, []Measure{{Name: "m"}}); err == nil {
		t.Error("8193^5 cells (> 2^64) accepted")
	}
	exact := schema.MustNew("exact", flat("a", 1<<16), flat("b", 1<<16), flat("c", 1<<16), flat("d", 1<<16))
	if _, err := New(exact, []Measure{{Name: "m"}}); err != nil {
		t.Errorf("2^64 cells refused: %v", err)
	}
}

func TestSetAndReadCell(t *testing.T) {
	o := employment(t)
	got, ok, err := o.CellValue(v("sex", "male", "year", "1992", "profession", "civil engineer"), "employment")
	if err != nil || !ok || got != 278000 {
		t.Errorf("CellValue = %v, %v, %v", got, ok, err)
	}
	// Empty cell.
	_, ok, err = o.CellValue(v("sex", "male", "year", "1991", "profession", "executive secretary"), "employment")
	if err != nil || ok {
		t.Errorf("empty cell: ok=%v err=%v", ok, err)
	}
	// Unknown measure / missing coordinate / unknown value.
	if _, _, err := o.CellValue(v("sex", "male", "year", "1991", "profession", "civil engineer"), "nope"); !errors.Is(err, ErrUnknownMeasure) {
		t.Errorf("unknown measure err = %v", err)
	}
	if _, _, err := o.CellValue(v("sex", "male"), "employment"); !errors.Is(err, ErrCoordMissing) {
		t.Errorf("missing coord err = %v", err)
	}
	if _, _, err := o.CellValue(v("sex", "male", "year", "1991", "profession", "astronaut"), "employment"); !errors.Is(err, hierarchy.ErrUnknownValue) {
		t.Errorf("unknown value err = %v", err)
	}
}

func TestObserveAccumulates(t *testing.T) {
	sch := schema.MustNew("obs", schema.Dimension{Name: "g", Class: hierarchy.FlatClassification("g", "a", "b")})
	o := MustNew(sch, []Measure{
		{Name: "total", Func: Sum, Type: Flow},
		{Name: "n", Func: Count, Type: Flow},
		{Name: "mean", Func: Avg, Type: ValuePerUnit},
		{Name: "lo", Func: Min, Type: ValuePerUnit},
		{Name: "hi", Func: Max, Type: ValuePerUnit},
	})
	for _, x := range []float64{10, 20, 60} {
		if err := o.Observe(v("g", "a"), map[string]float64{"total": x, "mean": x, "lo": x, "hi": x}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(measure string, want float64) {
		t.Helper()
		got, ok, err := o.CellValue(v("g", "a"), measure)
		if err != nil || !ok || got != want {
			t.Errorf("%s = %v (ok=%v err=%v), want %v", measure, got, ok, err, want)
		}
	}
	check("total", 90)
	check("n", 3)
	check("mean", 30)
	check("lo", 10)
	check("hi", 60)
	// Unknown measure in observation is an error.
	if err := o.Observe(v("g", "a"), map[string]float64{"nope": 1}); !errors.Is(err, ErrUnknownMeasure) {
		t.Errorf("unknown measure err = %v", err)
	}
}

func TestAvgEmptyCellIsNaN(t *testing.T) {
	sch := schema.MustNew("x", schema.Dimension{Name: "g", Class: hierarchy.FlatClassification("g", "a")})
	o := MustNew(sch, []Measure{{Name: "mean", Func: Avg, Type: ValuePerUnit}})
	total, err := o.Total("mean")
	if err != nil || !math.IsNaN(total) {
		t.Errorf("empty avg total = %v, %v, want NaN", total, err)
	}
}

func TestSetCellWeighted(t *testing.T) {
	sch := schema.MustNew("x", schema.Dimension{Name: "g", Class: hierarchy.FlatClassification("g", "a", "b")})
	o := MustNew(sch, []Measure{{Name: "mean income", Func: Avg, Type: ValuePerUnit}})
	// Macro-data: group a has mean 100 over 3 people, b mean 200 over 1.
	if err := o.SetCellWeighted(v("g", "a"), "mean income", 100, 3); err != nil {
		t.Fatal(err)
	}
	if err := o.SetCellWeighted(v("g", "b"), "mean income", 200, 1); err != nil {
		t.Fatal(err)
	}
	// Rolling up re-weights: (300+200)/4 = 125, not (100+200)/2.
	total, err := o.Total("mean income")
	if err != nil || math.Abs(total-125) > 1e-9 {
		t.Errorf("weighted total = %v, %v, want 125", total, err)
	}
	// Weighted set on a non-avg measure fails.
	o2 := MustNew(sch, []Measure{{Name: "m", Func: Sum, Type: Flow}})
	if err := o2.SetCellWeighted(v("g", "a"), "m", 1, 1); err == nil {
		t.Error("SetCellWeighted on sum measure should fail")
	}
}

func TestTotalAndCells(t *testing.T) {
	o := retail(t)
	if o.Cells() != 7 {
		t.Errorf("Cells = %d", o.Cells())
	}
	total, err := o.Total("quantity sold")
	if err != nil || total != 55 {
		t.Errorf("Total = %v, %v", total, err)
	}
	if _, err := o.Total("nope"); !errors.Is(err, ErrUnknownMeasure) {
		t.Errorf("Total unknown measure err = %v", err)
	}
}

func TestForEachDeterministic(t *testing.T) {
	o := retail(t)
	var first, second []string
	o.ForEach(func(coords []Value, vals []float64) bool {
		first = append(first, strings.Join(coords, "|"))
		return true
	})
	o.ForEach(func(coords []Value, vals []float64) bool {
		second = append(second, strings.Join(coords, "|"))
		return true
	})
	if len(first) != 7 {
		t.Fatalf("visited %d cells", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("ForEach order is not deterministic")
		}
	}
	// Early stop.
	n := 0
	o.ForEach(func(coords []Value, vals []float64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestStringConceptualStructure(t *testing.T) {
	o := retail(t)
	s := o.String()
	for _, want := range []string{
		"Summary measure: quantity sold (dollars)",
		"Summary function: sum",
		"Dimensions: product, store, day",
		"Classification hierarchy: city --> store",
		"Classification hierarchy: month --> day",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestMeasureAccessors(t *testing.T) {
	o := employment(t)
	m, err := o.Measure("employment")
	if err != nil || m.Func != Sum || m.Type != Stock {
		t.Errorf("Measure = %+v, %v", m, err)
	}
	if _, err := o.Measure("nope"); !errors.Is(err, ErrUnknownMeasure) {
		t.Errorf("unknown measure err = %v", err)
	}
	if len(o.Measures()) != 1 {
		t.Errorf("Measures len = %d", len(o.Measures()))
	}
}

func TestParseAggFunc(t *testing.T) {
	for s, want := range map[string]AggFunc{
		"sum": Sum, "count": Count, "avg": Avg, "average": Avg,
		"min": Min, "minimum": Min, "max": Max, "maximum": Max,
	} {
		got, err := ParseAggFunc(s)
		if err != nil || got != want {
			t.Errorf("ParseAggFunc(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAggFunc("median"); err == nil {
		t.Error("unknown func should fail")
	}
}

func TestAggFuncAndTypeStrings(t *testing.T) {
	if Sum.String() != "sum" || Avg.String() != "avg" {
		t.Error("AggFunc.String wrong")
	}
	if Flow.String() != "flow" || Stock.String() != "stock" || ValuePerUnit.String() != "value-per-unit" {
		t.Error("MeasureType.String wrong")
	}
	if !strings.Contains(AggFunc(99).String(), "99") || !strings.Contains(MeasureType(99).String(), "99") {
		t.Error("unknown enum String should include the number")
	}
}
