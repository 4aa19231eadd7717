package cube

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"statcube/internal/budget"
	"statcube/internal/keyspace"
	"statcube/internal/obs"
)

// viewsOf builds a Views by hand: one map per mask, nil for a view that
// is not stored.
func viewsOf(card []int, byMask ...map[uint64]float64) *Views {
	v := &Views{Card: card, stored: make([]*view, len(byMask))}
	for mask, m := range byMask {
		if m != nil {
			r := &run{}
			for k := range m {
				r.keys = append(r.keys, k)
			}
			slices.Sort(r.keys)
			for _, k := range r.keys {
				r.sums = append(r.sums, m[k])
			}
			v.stored[mask] = packedView(r)
		}
	}
	return v
}

// identicalAnswers reports whether two answers hold the same keys with
// bit-identical sums.
func identicalAnswers(a, b map[uint64]float64) bool { return maps.EqualFunc(a, b, sameBits) }

// randomInput generates a coded fact table.
func randomInput(card []int, rows int, seed int64) *Input {
	rng := rand.New(rand.NewSource(seed))
	in := &Input{Card: append([]int(nil), card...)}
	for i := 0; i < rows; i++ {
		row := make([]int, len(card))
		for d, c := range card {
			row[d] = rng.Intn(c)
		}
		in.Rows = append(in.Rows, row)
		in.Vals = append(in.Vals, float64(rng.Intn(100)))
	}
	return in
}

func TestInputValidate(t *testing.T) {
	in := &Input{Card: []int{2}, Rows: [][]int{{0}}, Vals: []float64{1, 2}}
	if err := in.Validate(); err == nil {
		t.Error("row/val mismatch should fail")
	}
	in = &Input{Card: []int{2}, Rows: [][]int{{0, 1}}, Vals: []float64{1}}
	if err := in.Validate(); err == nil {
		t.Error("dim mismatch should fail")
	}
	in = &Input{Card: []int{2}, Rows: [][]int{{5}}, Vals: []float64{1}}
	if err := in.Validate(); err == nil {
		t.Error("out-of-range code should fail")
	}
}

// denseInput is a fact table whose base pass takes the dense-rank
// branch: narrow keys over a range within keyspace.DenseSpan of the row
// count, out of order, and more rows than one budget.DefaultTickEvery
// segment.
func denseInput(t *testing.T) *Input {
	t.Helper()
	in := randomInput([]int{20, 30, 40}, 3*budget.DefaultTickEvery, 5)
	all := maskDims(7, 3)
	keys := make([]uint64, len(in.Rows))
	for i, row := range in.Rows {
		keys[i], _ = keyspace.Key(row, all, in.Card)
	}
	if got := groupBranch(keys, keyspace.Max(all, in.Card)); got != "dense" {
		t.Fatalf("the base of %v takes the %s branch, not the dense one", in.Card, got)
	}
	return in
}

// TestBuildsValidateLikeValidate: the smallest-parent build and
// MaterializeCtx check their input inside their one pass over the rows,
// and each bad input shape must still fail them with exactly Validate's
// error — the first bad row's, ahead of a bad view mask — with no views
// and no build abort recorded.
func TestBuildsValidateLikeValidate(t *testing.T) {
	good := func() *Input { return randomInput([]int{3, 4, 5}, 9000, 4) }
	shapes := map[string]func() *Input{
		"code at card, dense base past the first segment": func() *Input {
			in := denseInput(t)
			in.Rows[budget.DefaultTickEvery+1000][1] = 30
			return in
		},
		"17 dims":           func() *Input { return &Input{Card: make([]int, 17)} },
		"keys past 2^64":    func() *Input { return &Input{Card: []int{1 << 32, 1 << 32, 2}} },
		"rows without vals": func() *Input { in := good(); in.Vals = in.Vals[:100]; return in },
		"first row short":   func() *Input { in := good(); in.Rows[0] = in.Rows[0][:2]; return in },
		"nil row":           func() *Input { in := good(); in.Rows[17] = nil; return in },
		"long row, 2nd segment": func() *Input {
			in := good()
			in.Rows[5000] = append(in.Rows[5000], 0)
			return in
		},
		"negative code, last row": func() *Input { in := good(); in.Rows[8999][1] = -1; return in },
		"code at card, segment edge": func() *Input {
			in := good()
			in.Rows[4096][2] = 5
			return in
		},
		"two bad rows": func() *Input {
			in := good()
			in.Rows[7][0], in.Rows[3] = 3, in.Rows[3][:1]
			return in
		},
	}
	counters := func() [2]int64 {
		c := obs.Default().Snapshot().Counters
		return [2]int64{c["cube.builds_canceled"], c["cube.builds_denied"]}
	}
	ctx := context.Background()
	for name, shape := range shapes {
		want := shape().Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepts it", name)
		}
		before := counters()
		v, err := BuildROLAPSmallestParentCtx(ctx, shape(), Options{})
		if err == nil || err.Error() != want.Error() || v != nil {
			t.Errorf("%s: smallest-parent build gave (%v, %v), want Validate's %q", name, v != nil, err, want)
		}
		m, err := MaterializeCtx(ctx, shape(), []int{1, 1 << 20})
		if err == nil || err.Error() != want.Error() || m != nil {
			t.Errorf("%s: MaterializeCtx gave (%v, %v), want Validate's %q", name, m != nil, err, want)
		}
		if after := counters(); after != before {
			t.Errorf("%s: build aborts (canceled, denied) went %v → %v", name, before, after)
		}
	}
	if _, err := MaterializeCtx(ctx, good(), []int{1, 1 << 20}); err == nil || !strings.Contains(err.Error(), "view mask") {
		t.Errorf("a good input with a bad mask: %v, want the mask refused", err)
	}
}

func TestAllBuildersAgree(t *testing.T) {
	in := randomInput([]int{4, 3, 5}, 500, 1)
	naive, err := BuildROLAPNaiveCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildROLAPSmallestParentCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	molap, err := BuildMOLAPCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(sp) {
		t.Error("naive and smallest-parent cubes differ")
	}
	if !naive.Equal(molap) {
		t.Error("naive and MOLAP cubes differ")
	}
}

func TestCubeGrandTotal(t *testing.T) {
	in := randomInput([]int{3, 3}, 200, 2)
	v, err := BuildROLAPNaiveCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	apex := v.View(0)
	if len(apex) != 1 {
		t.Fatalf("apex entries = %d", len(apex))
	}
	var want float64
	for _, x := range in.Vals {
		want += x
	}
	if got := apex[0]; got != want {
		t.Errorf("grand total = %v, want %v", got, want)
	}
	if v.View(-1) != nil || v.View(99) != nil {
		t.Error("out-of-range View should be nil")
	}
}

func TestCubeBaseViewMatchesInput(t *testing.T) {
	in := randomInput([]int{2, 2}, 50, 3)
	v, _ := BuildMOLAPCtx(context.Background(), in, Options{})
	base := v.View(3)
	// Recompute base by hand.
	want := map[uint64]float64{}
	for ri, row := range in.Rows {
		want[uint64(row[0]*2+row[1])] += in.Vals[ri]
	}
	if len(base) != len(want) {
		t.Fatalf("base entries = %d, want %d", len(base), len(want))
	}
	for k, x := range want {
		if base[k] != x {
			t.Errorf("base[%d] = %v, want %v", k, base[k], x)
		}
	}
}

func TestMolapFeasible(t *testing.T) {
	if !MolapFeasible([]int{10, 10}, 100) {
		t.Error("100 cells should be feasible at 100")
	}
	if MolapFeasible([]int{10, 10, 10}, 100) {
		t.Error("1000 cells should be infeasible at 100")
	}
}

func TestViewsEqualTolerance(t *testing.T) {
	a := viewsOf([]int{2}, map[uint64]float64{0: 1}, map[uint64]float64{0: 1, 1: 2})
	b := viewsOf([]int{2}, map[uint64]float64{0: 1 + 1e-12}, map[uint64]float64{0: 1, 1: 2})
	if !a.Equal(b) {
		t.Error("tolerance equality failed")
	}
	c := viewsOf([]int{2}, map[uint64]float64{0: 5}, map[uint64]float64{0: 1, 1: 2})
	if a.Equal(c) {
		t.Error("different cubes reported equal")
	}
	d := viewsOf([]int{2}, map[uint64]float64{0: 1})
	if a.Equal(d) {
		t.Error("different view counts reported equal")
	}
}

// Property: all three builders agree on random inputs.
func TestQuickBuildersAgree(t *testing.T) {
	f := func(seed int64, rows uint8) bool {
		in := randomInput([]int{3, 2, 4}, int(rows)%100+1, seed)
		naive, e1 := BuildROLAPNaiveCtx(context.Background(), in, Options{})
		sp, e2 := BuildROLAPSmallestParentCtx(context.Background(), in, Options{})
		molap, e3 := BuildMOLAPCtx(context.Background(), in, Options{})
		if e1 != nil || e2 != nil || e3 != nil {
			return false
		}
		return naive.Equal(sp) && naive.Equal(molap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuildROLAPNaive(b *testing.B) {
	in := randomInput([]int{20, 20, 20}, 20000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildROLAPNaiveCtx(context.Background(), in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildROLAPSmallestParent(b *testing.B) {
	in := randomInput([]int{20, 20, 20}, 20000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildROLAPSmallestParentCtx(context.Background(), in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildMOLAP(b *testing.B) {
	in := randomInput([]int{20, 20, 20}, 20000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildMOLAPCtx(context.Background(), in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestValidateDimensionCap(t *testing.T) {
	in := &Input{Card: make([]int, 17)}
	for i := range in.Card {
		in.Card[i] = 2
	}
	if err := in.Validate(); err == nil {
		t.Error("17-dimension input should refuse")
	}
}

// wideCard spans 8193^5 > 2^64 keys, so keyspace.Key wraps: the rows below get
// the same base key and would be summed into one cell.
var (
	wideCard = []int{8193, 8193, 8193, 8193, 8193}
	wideRows = [][]int{{4096, 0, 0, 0, 0}, {1, 8188, 4, 8190, 4097}}
)

func TestValidateRefusesKeySpaceBeyond64Bits(t *testing.T) {
	dims := []int{0, 1, 2, 3, 4}
	a, _ := keyspace.Key(wideRows[0], dims, wideCard)
	if b, _ := keyspace.Key(wideRows[1], dims, wideCard); a != b {
		t.Fatalf("rows no longer collide (%d vs %d); pick a new pair", a, b)
	}
	in := &Input{Card: wideCard, Rows: wideRows, Vals: []float64{1, 2}}
	if err := in.Validate(); err == nil {
		t.Error("8193^5 keys (> 2^64) accepted")
	}
	in = &Input{Card: []int{1 << 16, 1 << 16, 1 << 16, 1 << 16}}
	if err := in.Validate(); err != nil {
		t.Errorf("2^64 keys refused: %v", err)
	}
}
