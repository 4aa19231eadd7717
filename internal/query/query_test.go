package query

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"statcube/internal/core"
	"statcube/internal/hierarchy"
	"statcube/internal/schema"
)

// incomeObject builds the Figure 13 object: average income by sex by year
// by profession.
func incomeObject(t *testing.T) *core.StatObject {
	t.Helper()
	prof := hierarchy.NewBuilder("profession", "profession",
		"chemical engineer", "civil engineer", "junior secretary").
		Level("professional class", "engineer", "secretary").
		Parent("chemical engineer", "engineer").
		Parent("civil engineer", "engineer").
		Parent("junior secretary", "secretary").
		MustBuild()
	sch := schema.MustNew("average income",
		schema.Dimension{Name: "sex", Class: hierarchy.FlatClassification("sex", "M", "F")},
		schema.Dimension{Name: "year", Class: hierarchy.FlatClassification("year", "1980", "1981"), Temporal: true},
		schema.Dimension{Name: "profession", Class: prof},
	)
	o := core.MustNew(sch, []core.Measure{{Name: "average income", Unit: "dollars", Func: core.Avg, Type: core.ValuePerUnit}})
	for _, c := range []struct {
		sex, year, prof string
		mean, n         float64
	}{
		{"M", "1980", "chemical engineer", 30000, 10},
		{"M", "1980", "civil engineer", 32000, 20},
		{"F", "1980", "chemical engineer", 28000, 10},
		{"F", "1980", "civil engineer", 31000, 10},
		{"M", "1981", "chemical engineer", 33000, 10},
		{"M", "1980", "junior secretary", 20000, 50},
	} {
		if err := o.SetCellWeighted(map[string]core.Value{"sex": c.sex, "year": c.year, "profession": c.prof},
			"average income", c.mean, c.n); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func TestParseBasics(t *testing.T) {
	q, err := Parse("SHOW average income WHERE year = 1980 AND professional class = engineer")
	if err != nil {
		t.Fatal(err)
	}
	if q.Measure != "average income" {
		t.Errorf("measure = %q", q.Measure)
	}
	if len(q.Where) != 2 {
		t.Fatalf("conds = %v", q.Where)
	}
	if q.Where[0].Name != "year" || q.Where[0].Values[0] != "1980" {
		t.Errorf("cond0 = %+v", q.Where[0])
	}
	if q.Where[1].Name != "professional class" || q.Where[1].Values[0] != "engineer" {
		t.Errorf("cond1 = %+v", q.Where[1])
	}
}

func TestParseByAndIn(t *testing.T) {
	q, err := Parse("show average income by sex, professional class where year in (1980, 1981)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.By, []string{"sex", "professional class"}) {
		t.Errorf("by = %v", q.By)
	}
	if len(q.Where) != 1 || len(q.Where[0].Values) != 2 {
		t.Errorf("where = %+v", q.Where)
	}
}

func TestParseQuotedValues(t *testing.T) {
	q, err := Parse("SHOW sales WHERE product = 'fuji apple'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Values[0] != "fuji apple" {
		t.Errorf("quoted value = %q", q.Where[0].Values[0])
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"FIND x",
		"SHOW",
		"SHOW m WHERE",
		"SHOW m WHERE a",
		"SHOW m WHERE a = ",
		"SHOW m WHERE a IN 1",
		"SHOW m WHERE a IN (1",
		"SHOW m WHERE a = 'unterminated",
		"SHOW m WHERE a = 1 garbage = 2",
	} {
		if _, err := Parse(bad); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) err = %v, want ErrSyntax", bad, err)
		}
	}
}

func TestRunScalarFigure13(t *testing.T) {
	o := incomeObject(t)
	got, err := RunScalarCtx(context.Background(), o, "SHOW average income WHERE year = 1980 AND professional class = engineer")
	if err != nil {
		t.Fatal(err)
	}
	want := (30000.0*10 + 32000*20 + 28000*10 + 31000*10) / 50
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("scalar = %v, want %v", got, want)
	}
}

func TestRunByQuery(t *testing.T) {
	o := incomeObject(t)
	res, err := RunCtx(context.Background(), o, "SHOW average income BY sex WHERE year = 1980")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema().NumDims() != 1 {
		t.Fatalf("result dims = %d", res.Schema().NumDims())
	}
	m, ok, err := res.CellValue(map[string]core.Value{"sex": "M"}, "average income")
	if err != nil || !ok {
		t.Fatal(err)
	}
	want := (30000.0*10 + 32000*20 + 20000*50) / 80
	if math.Abs(m-want) > 1e-9 {
		t.Errorf("M avg = %v, want %v", m, want)
	}
}

func TestRunByLevel(t *testing.T) {
	o := incomeObject(t)
	res, err := RunCtx(context.Background(), o, "SHOW average income BY professional class")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := res.Schema().Dimension("profession")
	if d.Class.LeafLevel().Name != "professional class" {
		t.Errorf("leaf level = %q", d.Class.LeafLevel().Name)
	}
	eng, ok, err := res.CellValue(map[string]core.Value{"profession": "engineer"}, "average income")
	if err != nil || !ok {
		t.Fatal(err)
	}
	want := (30000.0*10 + 32000*20 + 28000*10 + 31000*10 + 33000*10) / 60
	if math.Abs(eng-want) > 1e-9 {
		t.Errorf("engineer avg = %v, want %v", eng, want)
	}
}

func TestResolveQualifiedAndErrors(t *testing.T) {
	o := incomeObject(t)
	// Qualified form works.
	if _, err := RunCtx(context.Background(), o, "SHOW average income WHERE profession.professional class = engineer"); err != nil {
		t.Errorf("qualified: %v", err)
	}
	// Unknown names.
	if _, err := RunCtx(context.Background(), o, "SHOW average income WHERE galaxy = m31"); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown err = %v", err)
	}
	if _, err := RunCtx(context.Background(), o, "SHOW nope WHERE year = 1980"); !errors.Is(err, core.ErrUnknownMeasure) {
		t.Errorf("unknown measure err = %v", err)
	}
	// Dimension constrained twice.
	if _, err := RunCtx(context.Background(), o, "SHOW average income WHERE year = 1980 AND year = 1981"); err == nil {
		t.Error("double constraint should fail")
	}
	// BY and WHERE on the same dimension.
	if _, err := RunCtx(context.Background(), o, "SHOW average income BY year WHERE year = 1980"); err == nil {
		t.Error("BY+WHERE clash should fail")
	}
	// Scalar form rejects BY.
	if _, err := RunScalarCtx(context.Background(), o, "SHOW average income BY sex"); err == nil {
		t.Error("RunScalar with BY should fail")
	}
}

// TestResolveRefusesDimensionNamedTwice: the resolver refuses a dimension
// named twice before any key exists, and says in which clauses.
func TestResolveRefusesDimensionNamedTwice(t *testing.T) {
	o := incomeObject(t)
	for text, want := range map[string]string{
		"SHOW average income BY sex, sex WHERE year = 1980":     "named twice in BY",
		"SHOW average income BY sex, sex.sex WHERE year = 1980": "named twice in BY",
		"SHOW average income BY year WHERE year = 1980":         "appears in both BY and WHERE",
		"SHOW average income WHERE year = 1980 AND year = 1981": "named twice in WHERE",
	} {
		q, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, key, err := Normalize(o, q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: key %q err %v, want an error saying %q", text, key, err, want)
		}
	}
}

func TestResolveAmbiguousLevel(t *testing.T) {
	// Two dimensions both with a level named "region".
	mk := func(dim string) schema.Dimension {
		c := hierarchy.NewBuilder(dim, dim, "x-"+dim).
			Level("region", "r-"+dim).
			Parent("x-"+dim, "r-"+dim).
			MustBuild()
		return schema.Dimension{Name: dim, Class: c}
	}
	sch := schema.MustNew("amb", mk("origin"), mk("destination"))
	o := core.MustNew(sch, []core.Measure{{Name: "flights", Func: core.Sum, Type: core.Flow}})
	if _, err := RunCtx(context.Background(), o, "SHOW flights WHERE region = r-origin"); !errors.Is(err, ErrAmbiguous) {
		t.Errorf("ambiguous err = %v", err)
	}
	// Qualification disambiguates.
	if _, err := RunCtx(context.Background(), o, "SHOW flights WHERE origin.region = r-origin"); err != nil {
		t.Errorf("qualified: %v", err)
	}
}

func TestResolveDimensionLevelCollision(t *testing.T) {
	// Dimension "state" collides with a level "state" on the *city*
	// dimension's classification: the bare name must be rejected as
	// ambiguous rather than silently resolving to the dimension.
	city := hierarchy.NewBuilder("city", "city", "oakland", "fresno").
		Level("state", "CA").
		Parent("oakland", "CA").
		Parent("fresno", "CA").
		MustBuild()
	sch := schema.MustNew("collision",
		schema.Dimension{Name: "state", Class: hierarchy.FlatClassification("state", "CA", "NV")},
		schema.Dimension{Name: "city", Class: city},
	)
	o := core.MustNew(sch, []core.Measure{{Name: "pop", Func: core.Sum, Type: core.Stock}})
	if err := o.SetCell(map[string]core.Value{"state": "CA", "city": "oakland"},
		map[string]float64{"pop": 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCtx(context.Background(), o, "SHOW pop WHERE state = CA"); !errors.Is(err, ErrAmbiguous) {
		t.Errorf("bare colliding name: err = %v, want ErrAmbiguous", err)
	}
	// Qualification selects each reading explicitly.
	if _, err := RunCtx(context.Background(), o, "SHOW pop WHERE city.state = CA"); err != nil {
		t.Errorf("city.state: %v", err)
	}
	if _, err := RunCtx(context.Background(), o, "SHOW pop WHERE state.state = CA"); err != nil {
		t.Errorf("state.state (the dimension's own leaf level): %v", err)
	}
	// A non-colliding dimension name still resolves bare.
	if _, err := RunCtx(context.Background(), o, "SHOW pop WHERE city = oakland"); err != nil {
		t.Errorf("bare non-colliding dimension: %v", err)
	}
}

// TestLevelNamedLikeItsDimension: when a non-leaf level carries its
// dimension's name, "BY d" (the leaf) and "BY d.d" (the upper level) are
// different plans, so their cache keys, fingerprints and answers must
// all differ; the leaf's spellings keep sharing one key.
func TestLevelNamedLikeItsDimension(t *testing.T) {
	region := hierarchy.NewBuilder("region", "city", "oakland", "fresno", "reno").
		Level("region", "west", "mountain").
		Parent("oakland", "west").
		Parent("fresno", "west").
		Parent("reno", "mountain").
		MustBuild()
	sch := schema.MustNew("towns", schema.Dimension{Name: "region", Class: region})
	o := core.MustNew(sch, []core.Measure{{Name: "pop", Func: core.Sum, Type: core.Flow}})
	for city, pop := range map[core.Value]float64{"oakland": 10, "fresno": 20, "reno": 30} {
		if err := o.SetCell(map[string]core.Value{"region": city}, map[string]float64{"pop": pop}); err != nil {
			t.Fatal(err)
		}
	}
	ident := func(text string) (fingerprint, key string, cells int) {
		t.Helper()
		q, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint, key, err = Normalize(o, q); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		res, err := RunCtx(context.Background(), o, text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return fingerprint, key, res.Cells()
	}
	leafFP, leafKey, leafCells := ident("SHOW pop BY region")
	upFP, upKey, upCells := ident("SHOW pop BY region.region")
	if leafKey == upKey || leafFP == upFP {
		t.Errorf("leaf and upper level share an identity: keys %q / %q, fingerprints %q / %q", leafKey, upKey, leafFP, upFP)
	}
	if leafCells != 3 || upCells != 2 {
		t.Errorf("cells: leaf %d, upper level %d; want 3 and 2", leafCells, upCells)
	}
	for _, text := range []string{"SHOW pop BY region.city", "SHOW pop BY city"} {
		if _, key, _ := ident(text); key != leafKey {
			t.Errorf("%s: key %q, want the leaf's %q", text, key, leafKey)
		}
	}
}
