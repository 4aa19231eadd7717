package cube

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// foldThenSort is group's reference: `m[k] += v` over the entries in
// input order, then the keys sorted.
func foldThenSort(keys []uint64, vals []float64) *run {
	m := map[uint64]float64{}
	for i, k := range keys {
		m[k] += vals[i]
	}
	r := &run{keys: make([]uint64, 0, len(m))}
	for k := range m {
		r.keys = append(r.keys, k)
	}
	slices.Sort(r.keys)
	for _, k := range r.keys {
		r.sums = append(r.sums, m[k])
	}
	return r
}

// groupCase is one input shape: n entries whose keys are drawn from
// distinct candidates at most maxKey.
type groupCase struct {
	name     string
	n        int
	distinct int // candidate keys; 0 means every draw is fresh
	maxKey   uint64
}

// drawGroupInput draws a case's entries: keys from the candidates (always
// including 0 and maxKey when there is room), values mixing signs,
// magnitudes, exact zeros and -0.0.
func drawGroupInput(c groupCase, rng *rand.Rand) ([]uint64, []float64) {
	randKey := func() uint64 {
		if c.maxKey == math.MaxUint64 {
			return rng.Uint64()
		}
		return uint64(rng.Int63n(int64(c.maxKey) + 1))
	}
	cand := []uint64{0, c.maxKey}
	for len(cand) < c.distinct {
		cand = append(cand, randKey())
	}
	keys := make([]uint64, c.n)
	vals := make([]float64, c.n)
	for i := range keys {
		if c.distinct > 0 {
			keys[i] = cand[rng.Intn(min(len(cand), c.distinct))]
		} else {
			keys[i] = randKey()
		}
		switch rng.Intn(5) {
		case 0:
			vals[i] = math.Copysign(0, -1)
		case 1:
			vals[i] = -rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
		default:
			vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		}
	}
	return keys, vals
}

// TestGroupMatchesMapFold: the kernel returns bit for bit the keys and
// sums of a map fold then a sort, on both of its branches — reached by
// the inputs' shape — for seeds 1, 7 and 42.
func TestGroupMatchesMapFold(t *testing.T) {
	cases := []groupCase{
		{"no entries", 0, 0, 1000},
		{"no entries, 2^64 keys", 0, 0, math.MaxUint64},
		{"one entry", 1, 0, 1 << 40},
		{"one key", 500, 1, 0},
		{"one key of many", 500, 1, 1 << 50},
		{"small key space", 2000, 0, 255},
		{"small key space, repeated", 3000, 7, 1000},
		{"key space near entries", 1000, 0, 3999},
		{"wide key space", 1000, 0, 1 << 20},
		{"keys above 2^32", 1500, 0, 1<<44 + 12345},
		{"keys above 2^32, repeated", 4000, 9, 1 << 60},
		{"full 64-bit keys", 2000, 0, math.MaxUint64},
		{"full 64-bit keys, repeated", 2000, 40, math.MaxUint64},
	}
	var dense, sparse int
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range cases {
			keys, vals := drawGroupInput(c, rng)
			if c.maxKey/denseSpan < uint64(len(keys)) {
				dense++
			} else {
				sparse++
			}
			want := foldThenSort(keys, vals)
			inKeys, inVals := slices.Clone(keys), slices.Clone(vals)
			got := group(keys, vals, c.maxKey)
			if !slices.Equal(keys, inKeys) || !slices.EqualFunc(vals, inVals, sameBits) {
				t.Fatalf("seed %d, %s: group wrote to its input", seed, c.name)
			}
			if len(got.keys) != len(got.sums) {
				t.Fatalf("seed %d, %s: %d keys, %d sums", seed, c.name, len(got.keys), len(got.sums))
			}
			if !packedView(got).equal(packedView(want), sameBits) {
				t.Fatalf("seed %d, %s: %d keys differ from the map fold's %d, or a sum's bits do",
					seed, c.name, len(got.keys), len(want.keys))
			}
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("shapes reached the dense branch %d times and the sparse one %d times; both must be covered", dense, sparse)
	}
}

// TestGroupNegativeZero: a key whose values are all -0.0 sums to +0, as
// `m[k] += -0.0` on an absent key does, on both branches.
func TestGroupNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, maxKey := range []uint64{3, math.MaxUint64} {
		r := group([]uint64{2, 2, 1}, []float64{negZero, negZero, negZero}, maxKey)
		for i, s := range r.sums {
			if math.Float64bits(s) != 0 {
				t.Errorf("maxKey %d: key %d sums to %v (bits %#x), want +0", maxKey, r.keys[i], s, math.Float64bits(s))
			}
		}
	}
}

// TestKeySpace2To64 builds cubes whose base key space is exactly 2^64
// keys — the widest Validate accepts — from rows at the corner codes,
// through the naive build, the smallest-parent build, and a
// materialization grown by an append. Every path must give the same runs
// bit for bit, with the largest code row at key 2^64-1.
func TestKeySpace2To64(t *testing.T) {
	const top = 1<<16 - 1
	in := &Input{
		Card: []int{1 << 16, 1 << 16, 1 << 16, 1 << 16},
		Rows: [][]int{
			{0, 0, 0, 0}, {top, top, top, top}, {0, top, 0, top}, {top, 0, top, 0},
			{top, top, top, top}, {1, top, top, 0}, {top, top, 0, 0}, {0, 0, top, top},
		},
		Vals: []float64{1.5, -2.25, 4, 8.5, 0.75, -16, 32, 64},
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	naive, err := BuildROLAPNaiveCtx(ctx, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildROLAPSmallestParentCtx(ctx, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Identical(sp) {
		t.Fatal("naive and smallest-parent builds differ")
	}
	base := sp.View(len(sp.stored) - 1)
	if got := base[math.MaxUint64]; got != -2.25+0.75 {
		t.Errorf("base[2^64-1] = %v, want %v", got, -2.25+0.75)
	}
	if got := base[0]; got != 1.5 {
		t.Errorf("base[0] = %v, want 1.5", got)
	}

	masks := []int{0b0001, 0b0110, 0b1011, 0b1110}
	split := 3
	grown, err := MaterializeCtx(ctx, &Input{Card: in.Card, Rows: in.Rows[:split], Vals: in.Vals[:split]}, masks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grown.AppendRowsCtx(ctx, in.Rows[split:], in.Vals[split:]); err != nil {
		t.Fatal(err)
	}
	whole, err := MaterializeCtx(ctx, in, masks)
	if err != nil {
		t.Fatal(err)
	}
	if !grown.Identical(whole) {
		t.Fatal("materialize + append differs from materializing every row")
	}
	for _, mask := range whole.MaterializedMasks() {
		if !whole.views.stored[mask].equal(sp.stored[mask], sameBits) {
			t.Errorf("view %04b: materialized run differs from the smallest-parent build's", mask)
		}
	}
}
