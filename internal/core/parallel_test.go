package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"statcube/internal/hierarchy"
	"statcube/internal/schema"
)

// wideObject builds a densely observed object large enough to exercise the
// group-by fan-out: three flat dimensions plus a city→state hierarchy, two
// measures (sum and avg, so multi-slot merging is covered), and values
// spanning magnitudes so float summation order is visible in the bits.
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

// forceParallel pins the operator fan-out to n workers regardless of
// machine size and drops the cell threshold, restoring both on cleanup.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	oldW, oldMin := parWorkers, parMinCells
	parWorkers, parMinCells = workers, 0
	t.Cleanup(func() { parWorkers, parMinCells = oldW, oldMin })
}

// TestParallelGroupByByteIdentical checks SProject and SAggregate produce
// bit-for-bit the same cells on the sequential and parallel paths.
func TestParallelGroupByByteIdentical(t *testing.T) {
	o := wideObject(t)
	forceParallel(t, 1) // one worker: the sequential reference path
	seqProj, err := o.SProject("dim1", "dim2")
	if err != nil {
		t.Fatal(err)
	}
	seqAgg, err := o.SAggregate("region", "state")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		forceParallel(t, workers)
		parProj, err := o.SProject("dim1", "dim2")
		if err != nil {
			t.Fatal(err)
		}
		cellsIdentical(t, seqProj, parProj)
		parAgg, err := o.SAggregate("region", "state")
		if err != nil {
			t.Fatal(err)
		}
		cellsIdentical(t, seqAgg, parAgg)
	}
}

// TestParallelGroupByBelowThresholdStaysSequential pins the fallback: with
// the default threshold, a small object never takes the parallel path
// (which would be pure overhead).
func TestParallelGroupByBelowThresholdStaysSequential(t *testing.T) {
	o := employment(t)
	forceParallel(t, 4)
	parMinCells = 1 << 30
	res, err := o.SProject("sex")
	if err != nil {
		t.Fatal(err)
	}
	forceParallel(t, 1)
	seq, err := o.SProject("sex")
	if err != nil {
		t.Fatal(err)
	}
	cellsIdentical(t, seq, res)
}
