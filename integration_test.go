package statcube_test

import (
	"context"
	"math"
	"testing"

	"statcube/internal/core"
	"statcube/internal/cube"
	"statcube/internal/metadata"
	"statcube/internal/privacy"
	"statcube/internal/relstore"
	"statcube/internal/workload"
)

// TestCrossRepresentationConsistency is the repo's end-to-end invariant:
// the same retail dataset stored and aggregated through every layer —
// conceptual StatObject, relational engine with GROUP BY CUBE, and the
// coded MOLAP cube builder — must produce identical numbers everywhere.
// This is the "SDB example in the data cube form, OLAP example in the 2-D
// form" interchangeability of Section 2.
func TestCrossRepresentationConsistency(t *testing.T) {
	retail, err := workload.NewRetail(8, 6, 10, 3000, 99)
	if err != nil {
		t.Fatal(err)
	}
	sales := salesRelation(retail)

	// 1) Conceptual: CUBE over the StatObject.
	objCube, err := retail.Object.Cube()
	if err != nil {
		t.Fatal(err)
	}
	objIdx := map[string]float64{}
	for _, c := range objCube {
		objIdx[c.GroupingKey()] = c.Vals[0]
	}

	// 2) Relational: GROUP BY CUBE over the sales relation.
	relCube, err := sales.Cube([]string{"product", "store", "day"},
		[]relstore.Agg{{Op: relstore.AggSum, Col: "amount", As: "sum"}})
	if err != nil {
		t.Fatal(err)
	}
	if relCube.NumRows() != len(objCube) {
		t.Fatalf("cube row counts differ: relational %d vs conceptual %d", relCube.NumRows(), len(objCube))
	}
	relCube.Scan(func(row relstore.Row) bool {
		key := cubeKey(row[0]) + "|" + cubeKey(row[1]) + "|" + cubeKey(row[2])
		want, ok := objIdx[key]
		if !ok {
			t.Fatalf("relational cube row %v missing from conceptual cube", row)
		}
		if math.Abs(row[3].Float()-want) > 1e-9 {
			t.Fatalf("cube value at %s: relational %v vs conceptual %v", key, row[3].Float(), want)
		}
		return true
	})

	// 3) Coded builders: MOLAP vs the conceptual grand total.
	molap, err := cube.BuildMOLAPCtx(context.Background(), retail.Input, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	grand := molap.View(0)[0]
	objTotal, _ := retail.Object.Total("quantity sold")
	if math.Abs(grand-objTotal) > 1e-9 {
		t.Fatalf("MOLAP grand total %v vs object total %v", grand, objTotal)
	}

	// 4) Rollup through the classification equals the relational plan
	// through a dimension-table join.
	cityObj, err := retail.Object.SAggregate("store", "city")
	if err != nil {
		t.Fatal(err)
	}
	// Relational: map store -> city via the classification, then group.
	cityOf := map[string]string{}
	for _, s := range retail.Stores {
		ps, err := retail.StoreClass.Parents(0, s)
		if err != nil {
			t.Fatal(err)
		}
		cityOf[s] = ps[0]
	}
	si, _ := sales.ColIndex("store")
	ai, _ := sales.ColIndex("amount")
	relCity := map[string]float64{}
	sales.Scan(func(row relstore.Row) bool {
		relCity[cityOf[row[si].Str()]] += row[ai].Float()
		return true
	})
	cityRolled, err := cityObj.GroupBy("store")
	if err != nil {
		t.Fatal(err)
	}
	cityRolled.ForEach(func(coords []core.Value, vals []float64) bool {
		if math.Abs(relCity[coords[0]]-vals[0]) > 1e-9 {
			t.Fatalf("city %s: relational %v vs conceptual %v", coords[0], relCity[coords[0]], vals[0])
		}
		return true
	})
}

// salesRelation is the retail transactions as an uncoded relation: one
// row per coded input row, each code replaced by its dimension value.
func salesRelation(r *workload.Retail) *relstore.Relation {
	rel := relstore.MustNewRelation("sales",
		relstore.Column{Name: "product", Kind: relstore.KString},
		relstore.Column{Name: "store", Kind: relstore.KString},
		relstore.Column{Name: "day", Kind: relstore.KString},
		relstore.Column{Name: "amount", Kind: relstore.KFloat},
	)
	for i, row := range r.Input.Rows {
		rel.MustAppend(relstore.Row{
			relstore.S(r.Products[row[0]]), relstore.S(r.Stores[row[1]]), relstore.S(r.Days[row[2]]), relstore.F(r.Input.Vals[i]),
		})
	}
	return rel
}

func cubeKey(v relstore.Value) string {
	if v.IsAll() {
		return "ALL"
	}
	return v.Str()
}

// TestMicroMacroPrivacyPipeline runs the full census pipeline: micro-data
// → macro object → rollup → released table — and checks that numbers agree
// at every stage with the privacy layer's view of the same individuals.
func TestMicroMacroPrivacyPipeline(t *testing.T) {
	census, err := workload.NewCensus(3000, 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	macro, err := statcubeMacro(census)
	if err != nil {
		t.Fatal(err)
	}
	// Total population equals the micro row count and the privacy table.
	pop, _ := macro.Total("population")
	if int(pop) != census.Micro.NumRows() || int(pop) != census.Privacy.N() {
		t.Fatalf("population %v vs micro %d vs privacy %d", pop, census.Micro.NumRows(), census.Privacy.N())
	}
	// Per-state counts agree between the rolled-up macro object and the
	// privacy engine's truthful counts.
	states, err := macro.SAggregate("county", "state")
	if err != nil {
		t.Fatal(err)
	}
	states, err = states.GroupBy("county")
	if err != nil {
		t.Fatal(err)
	}
	states.ForEach(func(coords []core.Value, vals []float64) bool {
		n, err := census.Privacy.TrueCount(privacy.C(privacy.Term{Attr: "state", Value: coords[0]}))
		if err != nil {
			t.Fatal(err)
		}
		if int(vals[0]) != n {
			t.Fatalf("state %s: macro %v vs privacy %d", coords[0], vals[0], n)
		}
		return true
	})
}

// statcubeMacro derives the standard census macro object.
func statcubeMacro(c *workload.Census) (*core.StatObject, error) {
	return metadata.MacroFromMicro(c.Micro, c.Schema,
		[]core.Measure{{Name: "population", Func: core.Count, Type: core.Stock}},
		map[string]string{"population": ""})
}
