package cube

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"statcube/internal/keyspace"
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
// distinct candidates at most maxKey, optionally half of them on block
// edges, and optionally sorted ascending (values kept in draw order).
type groupCase struct {
	name     string
	n        int
	distinct int // candidate keys; 0 means every draw is fresh
	maxKey   uint64
	edges    bool // draw every other key from the block edges b·4096−1, b·4096
	sorted   bool
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
	var edges []uint64
	for b := uint64(blockSize); c.edges && b <= c.maxKey; b += blockSize {
		edges = append(edges, b-1, b)
	}
	cand := []uint64{0, c.maxKey}
	for len(cand) < c.distinct {
		cand = append(cand, randKey())
	}
	keys := make([]uint64, c.n)
	vals := make([]float64, c.n)
	for i := range keys {
		switch {
		case len(edges) > 0 && i%2 == 0:
			keys[i] = edges[rng.Intn(len(edges))]
		case c.distinct > 0:
			keys[i] = cand[rng.Intn(min(len(cand), c.distinct))]
		default:
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
	if c.sorted {
		slices.Sort(keys)
	}
	return keys, vals
}

// groupBranch names the branch group takes on keys, by the rules it
// dispatches on.
func groupBranch(keys []uint64, maxKey uint64) string {
	switch {
	case slices.IsSorted(keys):
		return "sorted"
	case maxKey/keyspace.DenseSpan >= uint64(len(keys)):
		return "radix"
	}
	return "dense"
}

// checkGroup runs group on one input and fails unless it leaves the input
// alone and returns bit for bit the map fold's keys and sums, sized
// exactly.
func checkGroup(t *testing.T, name string, keys []uint64, vals []float64, maxKey uint64) {
	t.Helper()
	want := foldThenSort(keys, vals)
	inKeys, inVals := slices.Clone(keys), slices.Clone(vals)
	got := group(keys, vals, maxKey)
	if !slices.Equal(keys, inKeys) || !slices.EqualFunc(vals, inVals, sameBits) {
		t.Fatalf("%s: group wrote to its input", name)
	}
	if len(got.keys) != len(got.sums) || cap(got.keys) != len(got.keys) || cap(got.sums) != len(got.sums) {
		t.Fatalf("%s: %d keys (cap %d), %d sums (cap %d): not sized exactly",
			name, len(got.keys), cap(got.keys), len(got.sums), cap(got.sums))
	}
	if !packedView(got).equal(packedView(want), sameBits) {
		t.Fatalf("%s: %d keys differ from the map fold's %d, or a sum's bits do",
			name, len(got.keys), len(want.keys))
	}
}

// TestGroupMatchesMapFold: the kernel returns bit for bit the keys and
// sums of a map fold then a sort, on every one of its branches — reached
// by the inputs' shape and counted — for seeds 1, 7 and 42.
func TestGroupMatchesMapFold(t *testing.T) {
	cases := []struct {
		groupCase
		branch string // the branch the case's shape reaches
	}{
		{groupCase{name: "no entries", n: 0, maxKey: 1000}, "sorted"},
		{groupCase{name: "no entries, 2^64 keys", n: 0, maxKey: math.MaxUint64}, "sorted"},
		{groupCase{name: "one entry", n: 1, maxKey: 1 << 40}, "sorted"},
		{groupCase{name: "one key", n: 500, distinct: 1, maxKey: 0}, "sorted"},
		{groupCase{name: "one key of many", n: 500, distinct: 1, maxKey: 1 << 50}, "sorted"},
		{groupCase{name: "sorted, dense", n: 5000, maxKey: 9999, sorted: true}, "sorted"},
		{groupCase{name: "sorted, repeated", n: 3000, distinct: 50, maxKey: 1 << 40, sorted: true}, "sorted"},
		{groupCase{name: "sorted, full 64-bit keys", n: 2000, distinct: 300, maxKey: math.MaxUint64, sorted: true}, "sorted"},
		{groupCase{name: "small key space", n: 2000, maxKey: 255}, "dense"},
		{groupCase{name: "small key space, repeated", n: 3000, distinct: 7, maxKey: 1000}, "dense"},
		{groupCase{name: "key space near entries", n: 1000, maxKey: 3999}, "dense"},
		{groupCase{name: "one full block", n: blockSize / 2, maxKey: blockSize - 1, edges: true}, "dense"},
		{groupCase{name: "two blocks, the second one key wide", n: blockSize / 2, maxKey: blockSize, edges: true}, "dense"},
		{groupCase{name: "many blocks, edge keys", n: 3 * blockSize, maxKey: 9*blockSize - 1, edges: true}, "dense"},
		{groupCase{name: "many blocks, repeated", n: 3 * blockSize, distinct: 900, maxKey: 5*blockSize + 17, edges: true}, "dense"},
		{groupCase{name: "many blocks", n: 30000, maxKey: 100_000}, "dense"},
		{groupCase{name: "wide key space", n: 1000, maxKey: 1 << 20}, "radix"},
		{groupCase{name: "keys above 2^32", n: 1500, maxKey: 1<<44 + 12345}, "radix"},
		{groupCase{name: "keys above 2^32, repeated", n: 4000, distinct: 9, maxKey: 1 << 60}, "radix"},
		{groupCase{name: "full 64-bit keys", n: 2000, maxKey: math.MaxUint64}, "radix"},
		{groupCase{name: "full 64-bit keys, repeated", n: 2000, distinct: 40, maxKey: math.MaxUint64}, "radix"},
	}
	reached := map[string]int{}
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range cases {
			keys, vals := drawGroupInput(c.groupCase, rng)
			name := fmt.Sprintf("seed %d, %s", seed, c.name)
			if got := groupBranch(keys, c.maxKey); got != c.branch {
				t.Fatalf("%s: reaches the %s branch, want %s", name, got, c.branch)
			}
			reached[c.branch]++
			checkGroup(t, name, keys, vals, c.maxKey)
		}
	}
	for _, b := range []string{"sorted", "dense", "radix"} {
		if reached[b] == 0 {
			t.Errorf("no case reached the %s branch (reached: %v); every branch must be covered", b, reached)
		}
	}
}

// rollUpBranch names the branch the roll-up u from parent to child
// takes, ck being the child keys of the parent run.
func rollUpBranch(u rollUp, card []int, parent, child int, ck []uint64) string {
	switch u.window {
	case 0:
		return map[string]string{"sorted": "sorted fallback", "dense": "dense fallback", "radix": "radix fallback"}[groupBranch(ck, u.maxKey)]
	case 1:
		return "trailing drop"
	}
	for d, c := range card {
		if parent&(1<<uint(d)) != 0 && c > 1 {
			if child&(1<<uint(d)) == 0 {
				return "leading window"
			}
			break
		}
	}
	return "middle window"
}

// rollUpCase is one generated lattice: the cardinalities and the base
// cuboid's entry count, keys drawn uniformly from its key space.
type rollUpCase struct {
	card    []int
	entries int
}

// drawCards draws 2–5 dims, cardinality-1 dims among them, whose key
// space stays within 2^40.
func drawCards(rng *rand.Rand) []int {
	choices := []int{1, 2, 3, 5, 7, 20, 64, 100, 180, 1000, 9000}
	card := make([]int, 2+rng.Intn(4))
	span := 1.0
	for d := range card {
		for {
			c := choices[rng.Intn(len(choices))]
			if span*float64(c) <= 1<<40 {
				card[d], span = c, span*float64(c)
				break
			}
		}
	}
	return card
}

// TestRollUpMatchesMapFold: rolling every stored parent up into every
// child it derives gives bit for bit a `m[rk.Key(k)] += s` fold over the
// parent run in key order, then sorted, with runs sized exactly — on
// generated lattices of 2–5 dims with cardinality-1 dims among them, for
// seeds 1, 7 and 42, on every branch of the roll-up, reached and counted.
func TestRollUpMatchesMapFold(t *testing.T) {
	fixed := []rollUpCase{
		{[]int{100, 20, 180}, 12000}, // the retail shape: trailing, middle and leading windows
		{[]int{3, 100, 100}, 6000},   // a 10 000-key leading window: dense fallback
		{[]int{5, 1000, 1000}, 3000}, // a sparse child: radix fallback
		{[]int{1, 7, 1, 64, 3}, 2000},
	}
	reached := map[string]int{}
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		cases := slices.Clone(fixed)
		for range 5 {
			cases = append(cases, rollUpCase{drawCards(rng), 1 + rng.Intn(5000)})
		}
		for _, c := range cases {
			n := len(c.card)
			base := 1<<uint(n) - 1
			baseMax := keyspace.Max(maskDims(base, n), c.card)
			keys, vals := make([]uint64, c.entries), make([]float64, c.entries)
			for i := range keys {
				keys[i] = uint64(rng.Int63n(int64(baseMax) + 1))
				vals[i] = rng.NormFloat64() * 1e3 / 7
			}
			runs := make([]*run, base+1) // every view, by the reference fold from the base
			runs[base] = foldThenSort(keys, vals)
			for mask := range base {
				rk := keyspace.NewRekeyer(c.card, base, mask)
				ck := make([]uint64, len(runs[base].keys))
				for i, k := range runs[base].keys {
					ck[i] = rk.Key(k)
				}
				runs[mask] = foldThenSort(ck, runs[base].sums)
			}
			for parent := range runs {
				p := runs[parent]
				for child := range parent {
					if !DerivableFrom(child, parent) {
						continue
					}
					u := newRollUp(c.card, parent, child, len(p.keys))
					ck := make([]uint64, len(p.keys))
					for i, k := range p.keys {
						ck[i] = u.rk.Key(k)
					}
					name := fmt.Sprintf("seed %d, card %v, %d entries, %0*b → %0*b", seed, c.card, c.entries, n, parent, n, child)
					reached[rollUpBranch(u, c.card, parent, child, ck)]++
					got, want := u.fold(p.keys, p.sums), foldThenSort(ck, p.sums)
					if len(got.keys) != len(got.sums) || cap(got.keys) != len(got.keys) || cap(got.sums) != len(got.sums) {
						t.Fatalf("%s: %d keys (cap %d), %d sums (cap %d): not sized exactly",
							name, len(got.keys), cap(got.keys), len(got.sums), cap(got.sums))
					}
					if !packedView(got).equal(packedView(want), sameBits) {
						t.Fatalf("%s: %d keys differ from the map fold's %d, or a sum's bits do", name, len(got.keys), len(want.keys))
					}
				}
			}
		}
	}
	for _, b := range []string{"trailing drop", "middle window", "leading window", "dense fallback", "radix fallback"} {
		if reached[b] == 0 {
			t.Errorf("no roll-up reached the %s branch (reached: %v); every branch must be covered", b, reached)
		}
	}
}

// TestGroupNegativeZero: a key whose values are all -0.0 sums to +0, as
// `m[k] += -0.0` on an absent key does, on every branch, keys on either
// side of a presence word's edge among them.
func TestGroupNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var edges []uint64 // blockSize+1, blockSize, blockSize−1, 1, 0 over and over: never sorted
	for len(edges) < blockSize/2 {
		edges = append(edges, blockSize+1, blockSize, blockSize-1, 1, 0)
	}
	cases := []struct {
		branch string
		keys   []uint64
		maxKey uint64
	}{
		{"sorted", []uint64{1, 2, 2}, 3},
		{"dense", []uint64{2, 2, 1}, 3},
		{"dense", edges, blockSize + 1},
		{"radix", []uint64{2, 2, 1}, math.MaxUint64},
	}
	for _, c := range cases {
		if got := groupBranch(c.keys, c.maxKey); got != c.branch {
			t.Fatalf("case for %s reaches %s", c.branch, got)
		}
		vals := make([]float64, len(c.keys))
		for i := range vals {
			vals[i] = negZero
		}
		r := group(c.keys, vals, c.maxKey)
		for i, s := range r.sums {
			if math.Float64bits(s) != 0 {
				t.Errorf("%s: key %d sums to %v (bits %#x), want +0", c.branch, r.keys[i], s, math.Float64bits(s))
			}
		}
		checkGroup(t, c.branch, c.keys, vals, c.maxKey)
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
