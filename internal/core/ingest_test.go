package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"statcube/internal/hierarchy"
	"statcube/internal/keyspace"
	"statcube/internal/schema"
)

// ingestObject builds an empty object over a random shape of 1–4 flat
// dimensions, 1–4 measures of random summary functions, the first one's
// function chosen by the caller so every function is covered.
func ingestObject(t testing.TB, rng *rand.Rand, first AggFunc) *StatObject {
	t.Helper()
	dims := make([]schema.Dimension, 1+rng.Intn(4))
	for d := range dims {
		vals := make([]Value, 1+rng.Intn(9))
		for i := range vals {
			vals[i] = fmt.Sprintf("v%d", i)
		}
		name := fmt.Sprintf("d%d", d)
		dims[d] = schema.Dimension{Name: name, Class: hierarchy.FlatClassification(name, vals...)}
	}
	ms := make([]Measure, 1+rng.Intn(4))
	for i := range ms {
		f := first
		if i > 0 {
			f = AggFunc(rng.Intn(5))
		}
		ms[i] = Measure{Name: fmt.Sprintf("m%d", i), Func: f, Type: Flow}
	}
	return MustNew(schema.MustNew("random", dims...), ms)
}

// randomBatch draws n rows over o's shape — few enough cells that keys
// repeat — and a value column for a random subset of its measures, so a
// Count measure is sometimes named and sometimes not. Values span
// magnitudes and signs, with an occasional -0, ±Inf or NaN, so a change
// in folding order or arithmetic shows in the bits.
func randomBatch(rng *rand.Rand, o *StatObject, n int) ([][]int, map[string][]float64) {
	shape := o.sch.Shape()
	coords := make([][]int, n)
	for r := range coords {
		coords[r] = make([]int, len(shape))
		for d, c := range shape {
			coords[r][d] = rng.Intn(c)
		}
	}
	obs := map[string][]float64{}
	for _, m := range o.measures {
		if rng.Intn(3) == 0 {
			continue
		}
		col := make([]float64, n)
		for r := range col {
			switch rng.Intn(40) {
			case 0:
				col[r] = math.Copysign(0, -1)
			case 1:
				col[r] = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				col[r] = math.NaN()
			default:
				col[r] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
			}
		}
		obs[m.Name] = col
	}
	return coords, obs
}

// observeEach is the reference: the batch as one ObserveAt per row.
func observeEach(t *testing.T, o *StatObject, coords [][]int, obs map[string][]float64) {
	t.Helper()
	for r, c := range coords {
		row := map[string]float64{}
		for name, col := range obs {
			row[name] = col[r]
		}
		if err := o.ObserveAt(c, row); err != nil {
			t.Fatal(err)
		}
	}
}

// ingestBranch names the branch keyspace.Group ranks a batch's keys on
// in o, by the rules it dispatches on: "sorted" for keys in key order,
// "dense" for a key range within keyspace.DenseSpan of the row count,
// else "radix".
func ingestBranch(t *testing.T, o *StatObject, coords [][]int) string {
	t.Helper()
	s := o.store
	keys := make([]uint64, len(coords))
	for r, c := range coords {
		k, err := s.checkedKey(c)
		if err != nil {
			t.Fatalf("row %d: %v", r, err)
		}
		keys[r] = k
	}
	switch {
	case slices.IsSorted(keys):
		return "sorted"
	case keyspace.Max(s.dims, s.shape)/keyspace.DenseSpan < uint64(len(keys)):
		return "dense"
	}
	return "radix"
}

// TestObserveRowsMatchesObserveAt is the bulk load's differential test:
// on random shapes, measures and batches, ObserveRows into an empty, a
// settled or a tail-holding store leaves every cell's slots bit for bit
// as a loop of ObserveAt calls does, and the next batch into that result
// does too. Batches come small (most take Group's radix branch), large
// enough for the shape's key range to be dense, or in key order, and
// every branch is reached in each of the three states. A load that adds
// cells leaves the run sized exactly, keys and slots.
func TestObserveRowsMatchesObserveAt(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	reached := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		first := AggFunc(trial % 5)
		want := ingestObject(t, rng, first)
		got := MustNew(want.sch, want.measures)
		state := []string{"empty", "settled", "tail"}[trial%3]
		kind := []string{"small", "dense", "in key order"}[trial/3%3]
		if state != "empty" {
			coords, obs := randomBatch(rng, want, rng.Intn(60))
			observeEach(t, want, coords, obs)
			observeEach(t, got, coords, obs)
			want.store.settle()
			got.store.settle()
		}
		if state == "tail" {
			coords, obs := randomBatch(rng, want, 1+rng.Intn(30))
			observeEach(t, want, coords, obs)
			observeEach(t, got, coords, obs)
		}
		for batch := 0; batch < 2; batch++ {
			n := rng.Intn(200)
			if kind == "dense" {
				n = int(keyspace.Max(got.store.dims, got.store.shape)/keyspace.DenseSpan) + 2 + rng.Intn(50)
			}
			coords, obs := randomBatch(rng, want, n)
			if kind == "in key order" {
				slices.SortFunc(coords, slices.Compare)
			}
			branch := ingestBranch(t, got, coords)
			reached[state+", "+branch]++
			observeEach(t, want, coords, obs)
			cells := got.Cells()
			if err := got.ObserveRows(coords, obs); err != nil {
				t.Fatalf("trial %d (%s, %s batch, %v): %v", trial, state, kind, first, err)
			}
			cellsIdentical(t, got, want)
			if s := got.store; got.Cells() > cells && (cap(s.keys) != len(s.keys) || cap(s.vals) != len(s.vals)) {
				t.Fatalf("trial %d (%s, %s branch): run of %d keys (cap %d) and %d slots (cap %d), not sized exactly",
					trial, state, branch, len(s.keys), cap(s.keys), len(s.vals), cap(s.vals))
			}
		}
	}
	for _, state := range []string{"empty", "settled", "tail"} {
		for _, b := range []string{"sorted", "dense", "radix"} {
			if reached[state+", "+b] == 0 {
				t.Errorf("no batch into a %s store reached the %s branch (reached: %v)", state, b, reached)
			}
		}
	}
}

// storeBits is the store's run and tail, keys and slot bits, read
// without settling: what a refused load must leave unchanged.
func storeBits(o *StatObject) string {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	s := o.store
	return fmt.Sprint(s.keys, bits(s.vals), s.tailKeys, bits(s.tailVals), len(s.tailIdx))
}

// TestObserveRefusesBadCoordinates: a wrong coordinate count or an
// ordinal outside its dimension is a typed error, not a panic, from both
// ObserveAt and ObserveRows, and a refused call — like a batch with an
// unknown measure or a short column — leaves the run and the tail as
// they were.
func TestObserveRefusesBadCoordinates(t *testing.T) {
	o := MustNew(schema.MustNew("s",
		schema.Dimension{Name: "a", Class: hierarchy.FlatClassification("a", "a0", "a1")},
		schema.Dimension{Name: "b", Class: hierarchy.FlatClassification("b", "b0", "b1", "b2")},
	), []Measure{{Name: "x", Func: Sum}, {Name: "n", Func: Count}})
	if err := o.ObserveAt([]int{1, 2}, map[string]float64{"x": 5}); err != nil {
		t.Fatal(err)
	}
	o.store.settle()
	if err := o.ObserveAt([]int{0, 1}, map[string]float64{"x": 3}); err != nil {
		t.Fatal(err) // a tail entry beside the run
	}
	before := storeBits(o)
	good := [][]int{{0, 0}, {1, 1}}
	for _, bad := range [][]int{{0}, {0, 3}, {-1, 0}, {2, 0}, {0, 0, 0}, nil} {
		if err := o.ObserveAt(bad, map[string]float64{"x": 1}); !errors.Is(err, ErrCoordRange) {
			t.Errorf("ObserveAt(%v) = %v, want ErrCoordRange", bad, err)
		}
		rows := append(good[:2:2], bad, []int{0, 2})
		if err := o.ObserveRows(rows, map[string][]float64{"x": {1, 2, 3, 4}}); !errors.Is(err, ErrCoordRange) {
			t.Errorf("ObserveRows with row %v = %v, want ErrCoordRange", bad, err)
		}
	}
	dense := make([][]int, 40) // a dense batch, out of key order, whose last row is out of range
	for r := range dense {
		dense[r] = []int{r % 2, r % 3}
	}
	if got := ingestBranch(t, o, dense[:len(dense)-1]); got != "dense" {
		t.Fatalf("the dense batch's good rows take the %s branch", got)
	}
	dense[len(dense)-1] = []int{1, 3}
	if err := o.ObserveRows(dense, map[string][]float64{"x": make([]float64, len(dense))}); !errors.Is(err, ErrCoordRange) {
		t.Errorf("ObserveRows with a dense batch's last row out of range = %v, want ErrCoordRange", err)
	}
	if after := storeBits(o); after != before {
		t.Errorf("a refused dense batch changed the store:\n%s\n%s", before, after)
	}
	if err := o.ObserveRows(good, map[string][]float64{"y": {1, 2}}); !errors.Is(err, ErrUnknownMeasure) {
		t.Errorf("ObserveRows unknown measure = %v", err)
	}
	if err := o.ObserveRows(good, map[string][]float64{"x": {1}}); err == nil {
		t.Error("a short column was accepted")
	}
	if err := o.ObserveAt([]int{0, 0}, map[string]float64{"y": 1}); !errors.Is(err, ErrUnknownMeasure) {
		t.Errorf("ObserveAt unknown measure = %v", err)
	}
	if after := storeBits(o); after != before {
		t.Errorf("a refused load changed the store:\n%s\n%s", before, after)
	}
}

// keyCoords is the cell coordinates of key k in s.
func keyCoords(s *MapStore, k uint64) []int {
	coords := make([]int, len(s.shape))
	s.dec.Decode(k, coords)
	return coords
}

// TestObserveAtAllocatesNothing: folding into a stored cell allocates
// nothing, whether the cell is in the run or in the tail.
func TestObserveAtAllocatesNothing(t *testing.T) {
	o := wideObject(t)
	o.store.settle()
	run := keyCoords(o.store, o.store.keys[0])
	var tail []int
	for k := uint64(0); tail == nil; k++ {
		if _, ok := o.store.find(k); !ok {
			tail = keyCoords(o.store, k)
		}
	}
	if err := o.ObserveAt(tail, nil); err != nil {
		t.Fatal(err)
	}
	obs := map[string]float64{"amount": 1, "rate": 2}
	for _, coords := range [][]int{run, tail} {
		if n := testing.AllocsPerRun(100, func() {
			if err := o.ObserveAt(coords, obs); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ObserveAt(%v): %v allocations a call", coords, n)
		}
	}
}
