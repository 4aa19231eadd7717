// Benchmarks: one Benchmark family per experiment E1–E16 (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for the recorded results). Each
// benchmark times the kernel of the corresponding figure/claim from
// Shoshani's OLAP-vs-SDB survey; `cmd/cubebench` prints the full
// paper-shaped tables around these kernels.
package statcube_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"statcube/internal/btree"
	"statcube/internal/colstore"
	"statcube/internal/core"
	"statcube/internal/cube"
	"statcube/internal/hierarchy"
	"statcube/internal/marray"
	"statcube/internal/metadata"
	"statcube/internal/privacy"
	"statcube/internal/query"
	"statcube/internal/relstore"
	"statcube/internal/sampling"
	"statcube/internal/workload"
)

// ---- E1: marginals (Figs 1, 9) ----

func benchCensus(b *testing.B, n int) *workload.Census {
	b.Helper()
	c, err := workload.NewCensus(n, 10, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkE1MarginalsOnDemand(b *testing.B) {
	c := benchCensus(b, 100000)
	aggs := []relstore.Agg{{Op: relstore.AggSum, Col: "income", As: "total"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Micro.GroupBy([]string{"state"}, aggs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1MarginalsPrecomputed(b *testing.B) {
	c := benchCensus(b, 100000)
	marginal, err := c.Micro.GroupBy([]string{"state"},
		[]relstore.Agg{{Op: relstore.AggSum, Col: "income", As: "total"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marginal.Scan(func(relstore.Row) bool { return true })
	}
}

// ---- E2: transposed files (Fig 18) ----

func BenchmarkE2RowStoreSummary(b *testing.B) {
	c := benchCensus(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := c.Micro.Select(func(row relstore.Row) bool { return row[2].Str() == "white" })
		if _, err := sel.GroupBy([]string{"state"}, []relstore.Agg{{Op: relstore.AggSum, Col: "income"}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2TransposedSummary(b *testing.B) {
	c := benchCensus(b, 100000)
	tbl, err := colstore.FromRelation(c.Micro, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := tbl.SelectEq("race", "white")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tbl.GroupSum("state", "income", sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2TransposedRowAssembly(b *testing.B) {
	c := benchCensus(b, 100000)
	tbl, err := colstore.FromRelation(c.Micro, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tbl.Row(rng.Intn(tbl.NumRows())); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: encodings (Fig 19) ----

func BenchmarkE3SelectEq(b *testing.B) {
	c := benchCensus(b, 100000)
	if err := c.Micro.Sort("county", "state", "race", "sex", "age_group"); err != nil {
		b.Fatal(err)
	}
	for _, enc := range []colstore.Encoding{colstore.Plain, colstore.Dict, colstore.DictRLE, colstore.BitSliced} {
		tbl, err := colstore.FromRelation(c.Micro, map[string]colstore.Encoding{"race": enc})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(enc.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tbl.SelectEq("race", "white"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E4: array linearization (Fig 20) ----

func BenchmarkE4DenseArrayLookup(b *testing.B) {
	shape := []int{20, 10, 5, 50}
	arr := marray.MustNewDense(shape)
	rng := rand.New(rand.NewSource(2))
	coords := make([]int, 4)
	for pos := 0; pos < marray.Size(shape); pos++ {
		marray.Delinearize(pos, shape, coords)
		_ = arr.Set(coords, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marray.Delinearize(rng.Intn(marray.Size(shape)), shape, coords)
		if _, _, err := arr.Get(coords); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E5: header compression (Fig 21) ----

func BenchmarkE5HeaderForward(b *testing.B) {
	for _, density := range []float64{0.01, 0.1, 0.5} {
		shape := []int{100, 100, 20}
		arr := marray.MustNewDense(shape)
		rng := rand.New(rand.NewSource(3))
		coords := make([]int, 3)
		for pos := 0; pos < arr.Len(); pos++ {
			if rng.Float64() < density {
				marray.Delinearize(pos, shape, coords)
				_ = arr.Set(coords, 1)
			}
		}
		comp := marray.CompressDense(arr)
		b.Run(fmt.Sprintf("density=%v/bsearch", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				marray.Delinearize(i%arr.Len(), shape, coords)
				_, _, _ = comp.Get(coords)
			}
		})
		b.Run(fmt.Sprintf("density=%v/btree", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				marray.Delinearize(i%arr.Len(), shape, coords)
				_, _, _ = comp.GetViaBTree(coords)
			}
		})
	}
}

// ---- E6: greedy view selection (Fig 22) ----

func BenchmarkE6GreedySelect(b *testing.B) {
	lat, err := cube.NewLattice(
		[]string{"a", "b", "c", "d", "e"},
		[]int{1000, 30, 365, 50, 12},
		5_000_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat.GreedySelect(5)
	}
}

// ---- E7: chunked range queries (Fig 23) ----

func BenchmarkE7RangeSum(b *testing.B) {
	shape := []int{64, 64, 16}
	rng := rand.New(rand.NewSource(4))
	for _, cs := range [][]int{{64, 64, 16}, {8, 8, 8}, {1, 64, 1}} {
		c, err := marray.NewChunked(shape, cs)
		if err != nil {
			b.Fatal(err)
		}
		coords := make([]int, 3)
		for pos := 0; pos < marray.Size(shape); pos++ {
			marray.Delinearize(pos, shape, coords)
			_ = c.Set(coords, 1)
		}
		b.Run(fmt.Sprintf("chunk=%v", cs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d0 := rng.Intn(64)
				d2 := rng.Intn(16)
				if _, err := c.RangeSum([]int{d0, 0, d2}, []int{d0, 63, d2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E8: extendible arrays (Fig 24) ----

func BenchmarkE8Append(b *testing.B) {
	e, err := marray.NewExtendible([]int{500, 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Append(1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8RebuildPerAppend(b *testing.B) {
	e, err := marray.NewExtendible([]int{500, 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Append(1, 1); err != nil {
			b.Fatal(err)
		}
		if _, _, err := e.Rebuild(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E9: MOLAP vs ROLAP cube builds (Section 6.6) ----

func benchRetailInput(b *testing.B) *cube.Input {
	b.Helper()
	r, err := workload.NewRetail(20, 20, 20, 50000, 5)
	if err != nil {
		b.Fatal(err)
	}
	return r.Input
}

func BenchmarkE9CubeROLAPNaive(b *testing.B) {
	in := benchRetailInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.BuildROLAPNaiveCtx(context.Background(), in, cube.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9CubeROLAPSmallestParent(b *testing.B) {
	in := benchRetailInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.BuildROLAPSmallestParentCtx(context.Background(), in, cube.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9CubeMOLAP(b *testing.B) {
	in := benchRetailInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.BuildMOLAPCtx(context.Background(), in, cube.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel counterparts of the E9 builds: same inputs, Workers: 4, so
// the views of each lattice level fan out across workers (a build's base
// load stays one sequential pass). Compare them with the sequential
// benches above; the ratio means something only on multi-core hosts.

func BenchmarkE9CubeROLAPNaiveParallel(b *testing.B) {
	in := benchRetailInput(b)
	opts := cube.Options{Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.BuildROLAPNaiveCtx(context.Background(), in, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9CubeROLAPSmallestParentParallel(b *testing.B) {
	in := benchRetailInput(b)
	opts := cube.Options{Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.BuildROLAPSmallestParentCtx(context.Background(), in, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9CubeMOLAPParallel(b *testing.B) {
	in := benchRetailInput(b)
	opts := cube.Options{Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.BuildMOLAPCtx(context.Background(), in, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E10: tracker attack (Section 7) ----

func BenchmarkE10TrackerAttack(b *testing.B) {
	c := benchCensus(b, 5000)
	target := privacy.Conj{
		{Attr: "race", Value: "native"},
		{Attr: "sex", Value: "female"},
		{Attr: "age_group", Value: "65-120"},
		{Attr: "county", Value: "county-00-00"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := privacy.NewGuard(c.Privacy, privacy.WithSizeRestriction(10))
		tr, err := privacy.FindGeneralTracker(g, 10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Sum(g, target, "income"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E11: automatic aggregation (Fig 13) ----

func benchMacro(b *testing.B) *core.StatObject {
	b.Helper()
	c := benchCensus(b, 100000)
	macro, err := metadata.MacroFromMicro(c.Micro, c.Schema,
		[]core.Measure{{Name: "population", Func: core.Count, Type: core.Stock}},
		map[string]string{"population": ""})
	if err != nil {
		b.Fatal(err)
	}
	return macro
}

func BenchmarkE11AutoAggregate(b *testing.B) {
	macro := benchMacro(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.RunScalarCtx(context.Background(), macro,
			"SHOW population WHERE state = state-03 AND sex = female"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11ExplicitRelationalPlan(b *testing.B) {
	c := benchCensus(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := c.Micro.Select(func(row relstore.Row) bool {
			return row[1].Str() == "state-03" && row[3].Str() == "female"
		})
		if _, err := sel.GroupBy(nil, []relstore.Agg{{Op: relstore.AggCount, As: "n"}}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E12: summarizability (Section 3.3.2) ----

func BenchmarkE12CheckedRollup(b *testing.B) {
	r, err := workload.NewRetail(200, 40, 90, 50000, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Object.SAggregate("store", "city"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12UncheckedRollup(b *testing.B) {
	r, err := workload.NewRetail(200, 40, 90, 50000, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Object.SAggregateUnchecked("store", "city"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E13: homomorphism squares (Fig 16) ----

func BenchmarkE13HomomorphismSquare(b *testing.B) {
	c := benchCensus(b, 2000)
	sq := &metadata.Square{
		Micro:       c.Micro,
		Schema:      c.Schema,
		Measures:    []core.Measure{{Name: "income", Func: core.Sum, Type: core.Flow}},
		MeasureCols: map[string]string{"income": "income"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sq.CheckProjection("sex"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E14: sampling (Section 5.6) ----

func BenchmarkE14ExtractThenSample(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	items := make([]float64, 1_000_000)
	for i := range items {
		items[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sampling.ExtractThenSample(items, 1000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14InDBSample(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	items := make([]float64, 1_000_000)
	for i := range items {
		items[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sampling.InDBSample(items, 1000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14BTreeSampling(b *testing.B) {
	tr := btree.New[int, float64]()
	for i := 0; i < 100000; i++ {
		tr.Put(i, float64(i))
	}
	rng := rand.New(rand.NewSource(8))
	b.Run("rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.SampleByRank(rng, 100)
		}
	})
	b.Run("accept-reject", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.SampleAcceptReject(rng, 100)
		}
	})
}

// ---- E15: classification matching (Fig 17) ----

func BenchmarkE15Realign(b *testing.B) {
	src, err := hierarchy.ParseIntervals([]string{"0-5", "6-10", "11-15", "16-20"})
	if err != nil {
		b.Fatal(err)
	}
	dst, err := hierarchy.ParseIntervals([]string{"0-1", "2-10", "11-20"})
	if err != nil {
		b.Fatal(err)
	}
	ref, err := hierarchy.Refine(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	data := []float64{60, 50, 40, 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hierarchy.Realign(data, src, ref); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablations ----

// BenchmarkE3MeasureSum compares summing a measure column stored as plain
// floats vs bit-sliced integers ([WL+85]'s arithmetic on transposed bits).
func BenchmarkE3MeasureSum(b *testing.B) {
	c := benchCensus(b, 100000)
	plain, err := colstore.FromRelation(c.Micro, nil)
	if err != nil {
		b.Fatal(err)
	}
	sliced, err := colstore.FromRelation(c.Micro, map[string]colstore.Encoding{"income": colstore.BitSliced})
	if err != nil {
		b.Fatal(err)
	}
	sel, err := plain.SelectEq("sex", "male")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("float", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plain.Sum("income", sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bit-sliced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sliced.Sum("income", sel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6Answer compares answering a coarse group-by from the base
// cuboid vs from a materialized intermediate view.
func BenchmarkE6Answer(b *testing.B) {
	in := benchRetailInput(b)
	bare, err := cube.MaterializeCtx(context.Background(), in, nil)
	if err != nil {
		b.Fatal(err)
	}
	rich, err := cube.MaterializeCtx(context.Background(), in, []int{0b011})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("from-base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := bare.Answer(0b001); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from-view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := rich.Answer(0b001); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E16: snapshot save/load (robustness) ----

func BenchmarkE16SnapshotSave(b *testing.B) {
	in := benchRetailInput(b)
	v, err := cube.BuildROLAPSmallestParentCtx(context.Background(), in, cube.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := cube.EncodeViews(ctx, &buf, v); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkE16SnapshotLoad(b *testing.B) {
	in := benchRetailInput(b)
	v, err := cube.BuildROLAPSmallestParentCtx(context.Background(), in, cube.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var buf bytes.Buffer
	if err := cube.EncodeViews(ctx, &buf, v); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.DecodeViews(ctx, bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}
