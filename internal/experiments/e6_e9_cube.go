package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"statcube/internal/cube"
	"statcube/internal/marray"
	"statcube/internal/stats"
	"statcube/internal/workload"
)

// E6GreedyViews — Figure 22, Section 6.3 [HUR96]: the greedy algorithm
// picks near-optimal views to materialize under a budget.
func E6GreedyViews() *Report {
	ctx := context.Background()
	r := &Report{
		ID:         "E6",
		Title:      "greedy view materialization on the lattice (Fig 22, [HUR96])",
		PaperClaim: "a greedy algorithm achieves at least 63% of the optimal benefit; in practice it is near-optimal",
	}
	lat, err := cube.NewLattice(
		[]string{"product", "location", "day"},
		[]int{1000, 30, 365},
		1_000_000)
	if err != nil {
		return r.fail(err)
	}
	baseline := lat.TotalCost(nil)
	r.addf("lattice: product(1000) × location(30) × day(365), base cuboid 1,000,000 rows")
	r.addf("baseline (base cuboid only): total query cost %d", baseline)
	worst := 1.0
	for k := 1; k <= 4; k++ {
		chosen, gb := lat.GreedySelect(k)
		_, ob := lat.OptimalSelect(k)
		frac := 1.0
		if ob > 0 {
			frac = float64(gb) / float64(ob)
		}
		if frac < worst {
			worst = frac
		}
		var names []string
		for _, m := range chosen {
			names = append(names, lat.ViewName(m))
		}
		r.addf("k=%d: greedy benefit %9d (%.1f%% of optimal %9d)  picks: %v",
			k, gb, 100*frac, ob, names)
	}
	// Space-constrained variant.
	for _, budget := range []int64{20_000, 100_000, 500_000} {
		chosen, b := lat.GreedySelectSpace(budget)
		var used int64
		for _, m := range chosen {
			used += lat.ViewSize(m)
		}
		r.addf("space budget %7d: %d views, %7d rows used, benefit %d", budget, len(chosen), used, b)
	}
	// The cost model made real: materialize the greedy picks over actual
	// data and measure answering cost for one query per view.
	retail, err := workload.NewRetail(200, 30, 90, 100000, 6)
	if err != nil {
		return r.fail(err)
	}
	smallLat, err := cube.NewLattice(retail.DimNames, retail.Input.Card, int64(len(retail.Input.Rows)))
	if err != nil {
		return r.fail(err)
	}
	picks, _ := smallLat.GreedySelect(2)
	bare, err := cube.MaterializeCtx(ctx, retail.Input, nil)
	if err != nil {
		return r.fail(err)
	}
	rich, err := cube.MaterializeCtx(ctx, retail.Input, picks)
	if err != nil {
		return r.fail(err)
	}
	var bareCost, richCost int64
	for mask := 0; mask < smallLat.NumViews(); mask++ {
		if _, c, err := bare.Answer(mask); err == nil {
			bareCost += c
		}
		if _, c, err := rich.Answer(mask); err == nil {
			richCost += c
		}
	}
	r.addf("measured on data (200×30×90, 100k tx): answering all 8 views scans %d rows base-only vs %d with 2 greedy views (+%d stored entries)",
		bareCost, richCost, rich.StorageEntries())
	r.Shape = fmt.Sprintf("greedy never fell below %.0f%% of optimal (bound: 63%%); materializing its picks cut measured answering cost %.1fx",
		100*worst, ratio(float64(bareCost), float64(richCost)))
	return r
}

// E7Chunking — Figure 23, Section 6.4 [SS94, CD+95]: chunked cubes read
// only the subcubes a range query overlaps; knowing the workload lets a
// non-symmetric partitioning do better.
func E7Chunking() *Report {
	r := &Report{
		ID:         "E7",
		Title:      "pre-partitioning the cube into subcubes (Fig 23, [SS94, CD+95])",
		PaperClaim: "only overlapping subcubes are read; workload-aware (non-symmetric) partitioning further improves on symmetric",
	}
	shape := []int{64, 64, 16}
	rng := rand.New(rand.NewSource(7))
	fill := func(c *marray.Chunked) {
		coords := make([]int, 3)
		for pos := 0; pos < marray.Size(shape); pos++ {
			marray.Delinearize(pos, shape, coords)
			if err := c.Set(coords, float64(rng.Intn(100))); err != nil {
				panic(err)
			}
		}
	}
	// Workload: long scans along dim1 (time-like), narrow elsewhere.
	var queries []marray.RangeQuery
	for i := 0; i < 200; i++ {
		d0 := rng.Intn(64)
		d2 := rng.Intn(16)
		queries = append(queries, marray.RangeQuery{
			Lo: []int{d0, 0, d2},
			Hi: []int{d0, 63, d2},
		})
	}
	const budget = 512 // cells per chunk
	whole := []int{64, 64, 16}
	sym := marray.SymmetricChunkShape(shape, budget)
	opt := marray.OptimizeChunkShape(shape, queries, budget)
	for _, cs := range [][]int{whole, sym, opt} {
		c, err := marray.NewChunked(shape, cs)
		if err != nil {
			return r.fail(err)
		}
		fill(c)
		c.ResetAccounting()
		for _, q := range queries {
			if _, err := c.RangeSum(q.Lo, q.Hi); err != nil {
				return r.fail(err)
			}
		}
		label := "unchunked (one block)"
		if same(cs, sym) && !same(cs, whole) {
			label = "symmetric"
		}
		if same(cs, opt) && !same(cs, sym) && !same(cs, whole) {
			label = "workload-aware"
		}
		r.addf("chunk %v %-22s: %6d chunks read, %8d KB", cs, label, c.ChunksRead(), c.BytesRead()/1024)
	}
	symCost := marray.WorkloadCost(queries, sym)
	optCost := marray.WorkloadCost(queries, opt)
	r.Shape = fmt.Sprintf("chunking reads only overlapping subcubes; workload-aware shape %v touches %.1fx fewer chunks than symmetric %v",
		opt, ratio(float64(symCost), float64(optCost)), sym)
	return r
}

func same(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// E8ExtendibleArrays — Figure 24, Section 6.5 [RZ86]: incremental appends
// avoid restructuring the cube on every load.
func E8ExtendibleArrays() *Report {
	ctx := context.Background()
	r := &Report{
		ID:         "E8",
		Title:      "extendible arrays: incremental appends (Fig 24, [RZ86])",
		PaperClaim: "appends (e.g. daily loads) should not restructure the data cube; an extendible array adds a slab and updates an index",
	}
	const days = 60
	ext, err := marray.NewExtendible([]int{500, 100}) // products × days(initial)
	if err != nil {
		return r.fail(err)
	}
	rng := rand.New(rand.NewSource(8))
	baseline := ext.BytesWritten()
	appendTime := timeIt(func() {
		for d := 0; d < days; d++ {
			if err := ext.Append(1, 1); err != nil {
				panic(err)
			}
			day := ext.Extents()[1] - 1
			for p := 0; p < 500; p++ {
				if err := ext.Set([]int{p, day}, float64(rng.Intn(50))); err != nil {
					panic(err)
				}
			}
		}
	})
	appendBytes := ext.BytesWritten() - baseline
	// Rebuild-per-append comparator: the cost of relinearizing after every
	// daily load.
	var rebuildBytes int64
	rebuildTime := timeIt(func() {
		for d := 0; d < 5; d++ { // 5 rebuilds suffice to see the shape
			_, moved, err := ext.Rebuild()
			if err != nil {
				panic(err)
			}
			rebuildBytes += moved
		}
	})
	rebuildBytes = rebuildBytes / 5 * days // scale to the full horizon
	rebuildTime = rebuildTime / 5 * days
	r.addf("cube 500 products × 160 days after %d daily appends, %d slabs", days, ext.NumSlabs())
	r.addf("incremental appends: %8d KB written,  %v", appendBytes/1024, appendTime)
	r.addf("rebuild per append:  %8d KB moved (est), %v (est)", rebuildBytes/1024, rebuildTime)
	r.addf("ratio: %.0fx less data movement with the extendible structure",
		ratio(float64(rebuildBytes), float64(appendBytes)))
	// Reads remain correct across slabs.
	got, err := ext.RangeSum([]int{0, 0}, []int{499, 159})
	if err != nil {
		return r.fail(err)
	}
	r.addf("post-append full-range checksum: %.0f", got)
	// The other §6.5 technique: bulk updates to materialized views
	// ([RKR97]); deltas fold into every view instead of recomputing them.
	retail, err := workload.NewRetail(100, 20, 60, 50000, 10)
	if err != nil {
		return r.fail(err)
	}
	ms, err := cube.MaterializeCtx(ctx, retail.Input, []int{0b011, 0b101, 0b110})
	if err != nil {
		return r.fail(err)
	}
	delta, err := workload.NewRetail(100, 20, 60, 1000, 11)
	if err != nil {
		return r.fail(err)
	}
	var touched int64
	incr := timeIt(func() {
		touched, err = ms.AppendRowsCtx(ctx, delta.Input.Rows, delta.Input.Vals)
	})
	if err != nil {
		return r.fail(err)
	}
	combined := &cube.Input{Card: retail.Input.Card}
	combined.Rows = append(append([][]int{}, retail.Input.Rows...), delta.Input.Rows...)
	combined.Vals = append(append([]float64{}, retail.Input.Vals...), delta.Input.Vals...)
	full := timeIt(func() {
		_, err = cube.MaterializeCtx(ctx, combined, []int{0b011, 0b101, 0b110})
	})
	if err != nil {
		return r.fail(err)
	}
	r.addf("materialized-view maintenance ([RKR97]): 1000-row delta folds into 4 views touching %d entries in %v; rematerializing takes %v (%.0fx)",
		touched, incr, full, ratio(float64(full), float64(incr)))
	r.Shape = fmt.Sprintf("appends move %.0fx less data than rebuild-per-load, and view deltas beat rematerialization %.0fx — updates need not restructure",
		ratio(float64(rebuildBytes), float64(appendBytes)), ratio(float64(full), float64(incr)))
	return r
}

// e9Builds is how many times E9 times each builder.
const e9Builds = 5

// medianBuild times build e9Builds times, each after a runtime.GC() so
// that no build pays for collecting the garbage of the one before it,
// and returns the median; the first error stops it.
func medianBuild(build func() error) (time.Duration, error) {
	times := make([]float64, e9Builds)
	for i := range times {
		runtime.GC()
		var err error
		times[i] = float64(timeIt(func() { err = build() }))
		if err != nil {
			return 0, err
		}
	}
	med, err := stats.Percentile(times, 50)
	return time.Duration(med), err
}

// E9MolapVsRolap — Section 6.6 [ZDN97]: array-based (MOLAP) cube
// computation against two relational (ROLAP) plans, each build timed as
// the median of e9Builds. MOLAP beats the per-group-by hash plan on dense
// cubes; the sort-based smallest-parent plan, whose grouping kernel sums
// a small key range in a dense scratch array much as MOLAP does, keeps
// up with or runs ahead of this simplified in-memory MOLAP.
func E9MolapVsRolap() *Report {
	ctx := context.Background()
	r := &Report{
		ID:         "E9",
		Title:      "MOLAP vs ROLAP full-cube computation (Section 6.6, [ZDN97])",
		PaperClaim: "the claim that MOLAP performs better than ROLAP … was substantiated by tests [ZDN97]",
	}
	for _, cfg := range []struct {
		name string
		card []int
		rows int
	}{
		{"dense  20×20×20, 50k tx", []int{20, 20, 20}, 50000},
		{"medium 40×30×30, 50k tx", []int{40, 30, 30}, 50000},
		{"sparse 60×60×60, 20k tx", []int{60, 60, 60}, 20000},
	} {
		retail, err := workload.NewRetail(cfg.card[0], cfg.card[1], cfg.card[2], cfg.rows, 9)
		if err != nil {
			return r.fail(err)
		}
		in := retail.Input
		var naive, sp, molap *cube.Views
		tNaive, err := medianBuild(func() (err error) { naive, err = cube.BuildROLAPNaiveCtx(ctx, in, cube.Options{}); return err })
		if err != nil {
			return r.fail(err)
		}
		tSP, err := medianBuild(func() (err error) { sp, err = cube.BuildROLAPSmallestParentCtx(ctx, in, cube.Options{}); return err })
		if err != nil {
			return r.fail(err)
		}
		tMolap, err := medianBuild(func() (err error) { molap, err = cube.BuildMOLAPCtx(ctx, in, cube.Options{}); return err })
		if err != nil {
			return r.fail(err)
		}
		if !naive.Equal(sp) || !naive.Equal(molap) {
			return r.fail(fmt.Errorf("cube algorithms disagree on %s", cfg.name))
		}
		r.addf("%s: ROLAP naive %8v | ROLAP smallest-parent %8v | MOLAP array %8v (%.1fx vs naive, %.1fx vs smallest-parent)",
			cfg.name, tNaive, tSP, tMolap, ratio(float64(tNaive), float64(tMolap)), ratio(float64(tSP), float64(tMolap)))
	}
	r.Shape = "MOLAP beats the per-group-by hash plan (naive ROLAP) on dense cubes, its edge shrinking toward (and crossing) parity as the cube gets sparse; a sort-based smallest-parent ROLAP build matches or beats this simplified MOLAP at every density — which side of the Section 6.6 debate wins depends on the ROLAP plan as much as on density"
	return r
}
