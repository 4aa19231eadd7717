package cube

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The generated differential test for view storage: one oracle — a naive
// fold over the raw rows, written here and sharing no code with the
// package — against every representation of the same data: the three
// builders, a materialized set grown by batch appends, and whatever
// either becomes after a snapshot round trip. Everything is compared by
// Identical, float bit for float bit.
//
// Values are multiples of 1/4 (and the odd -0.0), so every sum is exact
// and the order of additions cannot show: the representations that add
// in different orders (a roll-up from a parent, a fold of raw rows) must
// then agree to the bit. TestDiffSummationOrder covers the pairs that
// add in the same order and so must agree on any floats at all.

// oracleFold groups rows by the masked dimensions, dimension 0 most
// significant, adding each value to its group in row order from +0.
func oracleFold(card []int, rows [][]int, vals []float64, mask int) map[uint64]float64 {
	out := map[uint64]float64{}
	for ri, row := range rows {
		var key uint64
		for d, c := range card {
			if mask>>uint(d)&1 == 1 {
				key = key*uint64(c) + uint64(row[d])
			}
		}
		out[key] += vals[ri]
	}
	return out
}

// oracleViews is the oracle's cube restricted to the given masks.
func oracleViews(in *Input, masks []int) *Views {
	byMask := make([]map[uint64]float64, 1<<uint(len(in.Card)))
	for _, mask := range masks {
		byMask[mask] = oracleFold(in.Card, in.Rows, in.Vals, mask)
	}
	return viewsOf(in.Card, byMask...)
}

// diffShape is one generated schema: cardinalities and rows per cell of
// the cross product.
type diffShape struct {
	card    []int
	density float64
}

var diffShapes = []diffShape{
	{[]int{5, 3}, 0.3},
	{[]int{2, 7}, 3},
	{[]int{4, 3, 5}, 0.1},
	{[]int{3, 4, 2}, 0.6},
	{[]int{6, 6, 6}, 4}, // every cell filled: the two-dimensional views tie on entry count
	{[]int{3, 2, 4, 3}, 0.2},
	{[]int{5, 4, 3, 5}, 2},
}

var minusZero = math.Copysign(0, -1)

// exactValue draws a multiple of 1/4 in [-250, 250], now and then -0.0.
func exactValue(rng *rand.Rand) float64 {
	if rng.Intn(25) == 0 {
		return minusZero
	}
	return float64(rng.Intn(2001)-1000) / 4
}

// diffInput generates a shape's fact table. No row lands on the last code
// of dimension 0: those cells are left for batches to introduce.
func diffInput(rng *rand.Rand, s diffShape, value func(*rand.Rand) float64) *Input {
	cells := 1
	for _, c := range s.card {
		cells *= c
	}
	in := &Input{Card: s.card}
	for i := 0; i < int(float64(cells)*s.density)+1; i++ {
		row := make([]int, len(s.card))
		for d, c := range s.card {
			row[d] = rng.Intn(c)
		}
		row[0] = rng.Intn(s.card[0] - 1)
		in.Rows = append(in.Rows, row)
		in.Vals = append(in.Vals, value(rng))
	}
	return in
}

// allMasks lists every mask of an n-dimensional lattice.
func allMasks(n int) []int {
	masks := make([]int, 1<<uint(n))
	for m := range masks {
		masks[m] = m
	}
	return masks
}

// roundTrip encodes v, decodes it, and requires the bytes to encode the
// same again.
func roundTrip(t *testing.T, v *Views) *Views {
	t.Helper()
	ctx := context.Background()
	var buf, again bytes.Buffer
	if err := EncodeViews(ctx, &buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeViews(ctx, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeViews(ctx, &again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("decoded cube encodes to different bytes")
	}
	return got
}

// appended materializes the first rows of in and folds the rest in as
// batches, the last three built to stress the fold: one repeats a key the
// set has never held, one introduces a key whose first and only value is
// -0.0 (an assignment instead of 0 + v would leave the sign bit set), one
// mixes new, just-added and long-stored keys. It returns the set and
// every row it was fed, in order.
func appended(t *testing.T, rng *rand.Rand, in *Input, masks []int, value func(*rand.Rand) float64) (*MaterializedSet, *Input) {
	t.Helper()
	ctx := context.Background()
	n := len(in.Rows)
	first := n / 2
	set, err := MaterializeCtx(ctx, &Input{Card: in.Card, Rows: in.Rows[:first], Vals: in.Vals[:first]}, masks)
	if err != nil {
		t.Fatal(err)
	}
	fed := &Input{Card: in.Card, Rows: append([][]int(nil), in.Rows...), Vals: append([]float64(nil), in.Vals...)}
	feed := func(rows [][]int, vals []float64) {
		t.Helper()
		touched, err := set.AppendRowsCtx(ctx, rows, vals)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(len(rows) * len(set.MaterializedMasks())); touched != want {
			t.Fatalf("AppendRowsCtx touched %d entries, want %d", touched, want)
		}
	}
	for lo := first; lo < n; {
		hi := min(n, lo+1+rng.Intn(max(1, n/6)))
		feed(in.Rows[lo:hi], in.Vals[lo:hi])
		lo = hi
	}
	heldOut := func(salt int) []int { // a cell no generated row can hit
		row := make([]int, len(in.Card))
		row[0] = in.Card[0] - 1
		for d := 1; d < len(row); d++ {
			row[d] = (salt + d) % in.Card[d]
		}
		return row
	}
	x, y, z := heldOut(0), heldOut(1), heldOut(2)
	special := []struct {
		rows [][]int
		vals []float64
	}{
		{[][]int{x, x, x}, []float64{value(rng), value(rng), value(rng)}},
		{[][]int{y}, []float64{minusZero}},
		{[][]int{z, in.Rows[0], z, x, in.Rows[0]}, []float64{minusZero, value(rng), value(rng), value(rng), value(rng)}},
	}
	for _, b := range special {
		feed(b.rows, b.vals)
		fed.Rows = append(fed.Rows, b.rows...)
		fed.Vals = append(fed.Vals, b.vals...)
	}
	return set, fed
}

func TestDiffRepresentationsAgree(t *testing.T) {
	ctx := context.Background()
	builders := []struct {
		name  string
		build func(context.Context, *Input, Options) (*Views, error)
	}{
		{"naive", BuildROLAPNaiveCtx},
		{"smallest-parent", BuildROLAPSmallestParentCtx},
		{"molap", BuildMOLAPCtx},
	}
	for _, seed := range []int64{1, 7, 42} {
		for si, shape := range diffShapes {
			t.Run(fmt.Sprintf("seed=%d/card=%v", seed, shape.card), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1000 + int64(si)))
				in := diffInput(rng, shape, exactValue)
				every := allMasks(len(in.Card))
				want := oracleViews(in, every)
				for _, b := range builders {
					got, err := b.build(ctx, in, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !got.Identical(want) {
						t.Errorf("%s cube differs from the oracle", b.name)
					}
					if !roundTrip(t, got).Identical(want) {
						t.Errorf("%s cube differs from the oracle after a snapshot round trip", b.name)
					}
				}

				// A materialized subset of the lattice — the views one
				// dimension short of the base, which tie on entry count
				// on the filled shape — grown by appends.
				base := len(every) - 1
				var masks []int
				for d := range in.Card {
					masks = append(masks, base&^(1<<uint(d)))
				}
				set, fed := appended(t, rng, in, masks, exactValue)
				stored := oracleViews(fed, append([]int{base}, masks...))
				if !set.views.Identical(stored) {
					t.Error("appended set differs from the oracle over the same rows")
				}
				whole, err := MaterializeCtx(ctx, fed, masks)
				if err != nil {
					t.Fatal(err)
				}
				if !set.Identical(whole) {
					t.Error("appended set differs from one materialized over the same rows")
				}
				if !roundTrip(t, set.views).Identical(stored) {
					t.Error("appended set differs from the oracle after a snapshot round trip")
				}
				// Every group-by, stored or rolled up from the smallest
				// stored ancestor, is the oracle's.
				for _, mask := range every {
					got, _, err := set.Answer(mask)
					if err != nil {
						t.Fatal(err)
					}
					if !identicalAnswers(got, oracleFold(fed.Card, fed.Rows, fed.Vals, mask)) {
						t.Errorf("Answer(%b) differs from the oracle", mask)
					}
				}
			})
		}
	}
}

// TestDiffSummationOrder: on floats whose sums round, representations
// that add in the same order still agree to the bit — the naive builder
// and the appended set's base cuboid fold raw rows in row order exactly
// as the oracle does, and a round trip changes nothing.
func TestDiffSummationOrder(t *testing.T) {
	ctx := context.Background()
	awkward := func(rng *rand.Rand) float64 { return rng.NormFloat64() * 1e3 / 7 }
	for _, seed := range []int64{1, 7, 42} {
		for si, shape := range diffShapes {
			rng := rand.New(rand.NewSource(seed*1000 + int64(si)))
			in := diffInput(rng, shape, awkward)
			every := allMasks(len(in.Card))
			naive, err := BuildROLAPNaiveCtx(ctx, in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !naive.Identical(oracleViews(in, every)) {
				t.Errorf("seed %d card %v: naive cube differs from the oracle", seed, shape.card)
			}
			sp, err := BuildROLAPSmallestParentCtx(ctx, in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !roundTrip(t, sp).Identical(sp) {
				t.Errorf("seed %d card %v: round trip changed the smallest-parent cube", seed, shape.card)
			}
			base := len(every) - 1
			set, fed := appended(t, rng, in, every[1:base], awkward)
			if !identicalAnswers(set.views.View(base), oracleFold(fed.Card, fed.Rows, fed.Vals, base)) {
				t.Errorf("seed %d card %v: appended base cuboid differs from the oracle", seed, shape.card)
			}
		}
	}
}
