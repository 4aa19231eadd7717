package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"statcube/internal/hierarchy"
	"statcube/internal/schema"
)

// wideObject builds a densely observed object for the group-by tests:
// three flat dimensions plus a city→state hierarchy, two measures (sum and
// avg, so multi-slot merging is covered), and values spanning magnitudes
// so float summation order is visible in the bits.
func wideObject(t testing.TB) *StatObject {
	t.Helper()
	cities := make([]Value, 12)
	for i := range cities {
		cities[i] = fmt.Sprintf("city-%02d", i)
	}
	b := hierarchy.NewBuilder("region", "city", cities...).
		Level("state", "st-0", "st-1", "st-2", "st-3")
	for i, c := range cities {
		b.Parent(c, fmt.Sprintf("st-%d", i%4))
	}
	var dims []schema.Dimension
	dims = append(dims, schema.Dimension{Name: "region", Class: b.MustBuild()})
	for d, card := range []int{10, 8, 6} {
		vals := make([]Value, card)
		for i := range vals {
			vals[i] = fmt.Sprintf("d%d-%02d", d, i)
		}
		dims = append(dims, schema.Dimension{Name: fmt.Sprintf("dim%d", d), Class: hierarchy.FlatClassification(fmt.Sprintf("dim%d", d), vals...)})
	}
	o := MustNew(schema.MustNew("wide", dims...), []Measure{
		{Name: "amount", Func: Sum, Type: Flow},
		{Name: "rate", Func: Avg, Type: ValuePerUnit},
	})
	rng := rand.New(rand.NewSource(19))
	coords := make([]int, 4)
	for i := 0; i < 4000; i++ {
		coords[0] = rng.Intn(12)
		coords[1] = rng.Intn(10)
		coords[2] = rng.Intn(8)
		coords[3] = rng.Intn(6)
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-5))
		if err := o.ObserveAt(coords, map[string]float64{"amount": v, "rate": v / 3}); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// cellsIdentical compares two objects' stores bit for bit.
func cellsIdentical(t *testing.T, a, b *StatObject) {
	t.Helper()
	if a.Cells() != b.Cells() {
		t.Fatalf("cell counts differ: %d vs %d", a.Cells(), b.Cells())
	}
	got := make([]float64, b.nslots)
	a.store.ForEach(func(coords []int, slots []float64) bool {
		if !b.store.Get(coords, got) {
			t.Fatalf("cell %v missing from second object", coords)
		}
		for i := range slots {
			if math.Float64bits(slots[i]) != math.Float64bits(got[i]) {
				t.Fatalf("cell %v slot %d: %x vs %x (not byte-identical)",
					coords, i, math.Float64bits(slots[i]), math.Float64bits(got[i]))
			}
		}
		return true
	})
}

// referenceFold folds o's cells into a map keyed by destination
// coordinates, slot by slot in ForEach order. Every wideObject measure
// merges by addition (sum, and avg's sum and count slots), so this is the
// result a group-by must reproduce bit for bit.
func referenceFold(o *StatObject, dst func(coords []int) []int) map[string][]float64 {
	ref := map[string][]float64{}
	o.store.ForEach(func(coords []int, slots []float64) bool {
		k := fmt.Sprint(dst(coords))
		acc, ok := ref[k]
		if !ok {
			acc = make([]float64, len(slots))
			ref[k] = acc
		}
		for i, s := range slots {
			acc[i] += s
		}
		return true
	})
	return ref
}

// matchesReference compares a group-by's cells with a reference fold.
func matchesReference(t *testing.T, name string, got *StatObject, ref map[string][]float64) {
	t.Helper()
	if got.Cells() != len(ref) {
		t.Fatalf("%s: %d cells, reference fold has %d", name, got.Cells(), len(ref))
	}
	got.store.ForEach(func(coords []int, slots []float64) bool {
		want, ok := ref[fmt.Sprint(coords)]
		if !ok {
			t.Fatalf("%s: cell %v not in the reference fold", name, coords)
		}
		for i := range slots {
			if math.Float64bits(slots[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: cell %v slot %d: %x, reference %x", name, coords, i,
					math.Float64bits(slots[i]), math.Float64bits(want[i]))
			}
		}
		return true
	})
}

// TestGroupByMatchesReferenceFold checks SProject and SAggregate produce
// bit-for-bit the cells of a plain map fold in the store's ForEach order,
// over both the sum and the two avg slots.
func TestGroupByMatchesReferenceFold(t *testing.T) {
	o := wideObject(t)
	proj, err := o.SProject("dim1", "dim2")
	if err != nil {
		t.Fatal(err)
	}
	matchesReference(t, "SProject", proj, referenceFold(o, func(c []int) []int {
		return []int{c[0], c[1]}
	}))

	region, err := o.sch.Dimension("region")
	if err != nil {
		t.Fatal(err)
	}
	leaves := region.Class.LeafLevel().Values
	state := make([]int, len(leaves))
	for i, v := range leaves {
		ancs, err := region.Class.Ancestors(0, v, 1)
		if err != nil || len(ancs) != 1 {
			t.Fatalf("ancestors of %v: %v %v", v, ancs, err)
		}
		if state[i], err = region.Class.ValueOrdinal(1, ancs[0]); err != nil {
			t.Fatal(err)
		}
	}
	agg, err := o.SAggregate("region", "state")
	if err != nil {
		t.Fatal(err)
	}
	matchesReference(t, "SAggregate", agg, referenceFold(o, func(c []int) []int {
		return []int{state[c[0]], c[1], c[2], c[3]}
	}))
}

// TestSmallGroupByMatchesReferenceFold checks the same fold on a small
// object (the employment example, a dozen cells): SProject has one path
// whatever the object's size, so it matches the reference fold here too.
func TestSmallGroupByMatchesReferenceFold(t *testing.T) {
	o := employment(t)
	proj, err := o.SProject("sex")
	if err != nil {
		t.Fatal(err)
	}
	matchesReference(t, "SProject", proj, referenceFold(o, func(c []int) []int {
		return []int{c[1], c[2]}
	}))
}
