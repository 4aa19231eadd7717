package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"statcube/internal/btree"
	"statcube/internal/core"
	"statcube/internal/hierarchy"
	"statcube/internal/metadata"
	"statcube/internal/privacy"
	"statcube/internal/query"
	"statcube/internal/relstore"
	"statcube/internal/sampling"
	"statcube/internal/workload"
)

// E10Tracker — Section 7 [DS80]: query-set-size restriction falls to the
// tracker; the other controls blunt it at a utility cost.
func E10Tracker() *Report {
	r := &Report{
		ID:         "E10",
		Title:      "the tracker vs inference controls (Section 7, [DS80])",
		PaperClaim: "it is always possible to compromise a size-restricted database with a combination of queries (a tracker)",
	}
	census, err := workload.NewCensus(5000, 5, 4, 10)
	if err != nil {
		return r.fail(err)
	}
	tbl := census.Privacy
	target := privacy.Conj{
		{Attr: "county", Value: "county-00-00"},
		{Attr: "race", Value: "native"},
		{Attr: "sex", Value: "female"},
		{Attr: "age_group", Value: "65-120"},
	}
	trueCount, _ := tbl.TrueCount(privacy.Formula{target})
	trueSum, _ := tbl.TrueSum(privacy.Formula{target}, "income")
	for _, k := range []int{5, 10, 25} {
		g := privacy.NewGuard(tbl, privacy.WithSizeRestriction(k))
		tr, err := privacy.FindGeneralTracker(g, k)
		if err != nil {
			r.addf("k=%2d: no tracker found (%v)", k, err)
			continue
		}
		cnt, err1 := tr.Count(g, target)
		sum, err2 := tr.Sum(g, target, "income")
		answered, _ := g.Stats()
		if err1 != nil || err2 != nil {
			r.addf("k=%2d: attack failed (%v %v)", k, err1, err2)
			continue
		}
		r.addf("k=%2d: tracker %s=%s; inferred count %.0f (true %d), inferred sum %.0f (true %.0f), %d queries",
			k, tr.T.Attr, tr.T.Value, cnt, trueCount, sum, trueSum, answered)
	}
	// Defenses.
	gAudit := privacy.NewGuard(tbl, privacy.WithSizeRestriction(10), privacy.WithOverlapAudit(50))
	if tr, err := privacy.FindGeneralTracker(gAudit, 10); err != nil {
		r.addf("overlap audit:        tracker search refused")
	} else if _, err := tr.Count(gAudit, target); err != nil {
		r.addf("overlap audit:        padding queries refused — attack blocked")
	} else {
		r.addf("overlap audit:        attack got through (bound too lax)")
	}
	gNoise := privacy.NewGuard(tbl, privacy.WithSizeRestriction(10), privacy.WithOutputPerturbation(25, 77))
	if tr, err := privacy.FindGeneralTracker(gNoise, 10); err == nil {
		if cnt, err := tr.Count(gNoise, target); err == nil {
			r.addf("output perturbation:  inferred count %.1f vs true %d — exact inference destroyed", cnt, trueCount)
		}
	}
	gSample := privacy.NewGuard(tbl, privacy.WithSizeRestriction(10), privacy.WithSampling(0.5, 78))
	if tr, err := privacy.FindGeneralTracker(gSample, 10); err == nil {
		if sum, err := tr.Sum(gSample, target, "income"); err == nil {
			r.addf("random-sample answers: inferred sum %.0f vs true %.0f — error %.0f%%",
				sum, trueSum, 100*math.Abs(sum-trueSum)/math.Max(1, trueSum))
		}
	} else {
		r.addf("random-sample answers: tracker could not certify itself under sampling noise")
	}
	r.Shape = "every size threshold fell to the tracker in tens of queries; auditing blocks it outright, perturbation/sampling leave only noisy inferences"
	return r
}

// E11AutomaticAggregation — Figure 13, Section 5.1 [S82]: concise queries
// against the statistical object's semantics equal the explicit relational
// plan.
func E11AutomaticAggregation() *Report {
	r := &Report{
		ID:         "E11",
		Title:      "automatic aggregation vs explicit SQL-style plans (Fig 13, [S82])",
		PaperClaim: "the semantics of the statistical object let a query state a minimum of conditions and infer the rest",
	}
	census, err := workload.NewCensus(100000, 10, 5, 11)
	if err != nil {
		return r.fail(err)
	}
	macro, err := metadata.MacroFromMicro(census.Micro, census.Schema,
		[]core.Measure{{Name: "population", Func: core.Count, Type: core.Stock}},
		map[string]string{"population": ""})
	if err != nil {
		return r.fail(err)
	}
	concise := "SHOW population WHERE state = state-03 AND sex = female"
	var auto float64
	autoTime := timeIt(func() {
		auto, err = query.RunScalarCtx(context.Background(), macro, concise)
	})
	if err != nil {
		return r.fail(err)
	}
	// Explicit relational plan over the micro-data: select, group, count.
	var explicit float64
	relTime := timeIt(func() {
		sel := census.Micro.Select(func(row relstore.Row) bool {
			return row[1].Str() == "state-03" && row[3].Str() == "female"
		})
		g, err2 := sel.GroupBy(nil, []relstore.Agg{{Op: relstore.AggCount, As: "n"}})
		if err2 != nil {
			panic(err2)
		}
		explicit = g.Row(0)[0].Float()
	})
	r.addf("concise: %q", concise)
	r.addf("  1 statement, conditions on 2 of 4 dimensions; the rollup over county→state,")
	r.addf("  the summarization over race/age, and the measure are all inferred")
	r.addf("auto = %.0f in %v;  explicit relational plan = %.0f in %v", auto, autoTime, explicit, relTime)
	if auto != explicit {
		return r.fail(fmt.Errorf("results differ: %v vs %v", auto, explicit))
	}
	r.Shape = "identical answers; the concise form names 2 conditions where the relational plan spells out selection, grouping and aggregation"
	return r
}

// E12Summarizability — Section 3.3.2 [RS90, LS97]: unchecked rollups over
// non-strict classifications silently inflate results; the checker refuses
// them at negligible cost.
func E12Summarizability() *Report {
	r := &Report{
		ID:         "E12",
		Title:      "summarizability enforcement (Section 3.3.2, [LS97])",
		PaperClaim: "summing physicians by specialty double-counts multi-specialty physicians; conditions must be checked",
	}
	for _, frac := range []float64{0, 0.1, 0.25, 0.5} {
		hmo, err := workload.NewHMO(300, 30000, frac, 12)
		if err != nil {
			return r.fail(err)
		}
		trueTotal, _ := hmo.Object.Total("cost")
		_, err = hmo.Object.SAggregate("physician", "specialty")
		forced, ferr := hmo.Object.SAggregateUnchecked("physician", "specialty")
		if ferr != nil {
			return r.fail(ferr)
		}
		inflated, _ := forced.Total("cost")
		status := "allowed (strict)"
		if err != nil {
			status = "REFUSED (non-strict)"
		}
		r.addf("multi-specialty %4.0f%%: rollup %-20s unchecked result inflates by %5.1f%%",
			100*frac, status, 100*(inflated-trueTotal)/trueTotal)
	}
	// Checker overhead on an allowed rollup: best of several runs so the
	// comparison is not dominated by allocator noise.
	retail, err := workload.NewRetail(200, 40, 90, 50000, 13)
	if err != nil {
		return r.fail(err)
	}
	best := func(fn func()) (d time.Duration) {
		for i := 0; i < 5; i++ {
			if t := timeIt(fn); i == 0 || t < d {
				d = t
			}
		}
		return d
	}
	withCheck := best(func() {
		if _, err := retail.Object.SAggregate("store", "city"); err != nil {
			panic(err)
		}
	})
	withoutCheck := best(func() {
		if _, err := retail.Object.SAggregateUnchecked("store", "city"); err != nil {
			panic(err)
		}
	})
	r.addf("allowed rollup, best of 5: %v checked vs %v unchecked", withCheck, withoutCheck)
	r.Shape = "inflation tracks the multi-specialty fraction (~28% at 25%); the check that prevents it is a classification scan, negligible next to the rollup"
	return r
}

// E13Homomorphism — Figure 16, Section 5.5 [MRS92]: the statistical
// algebra commutes with summarization over the relational algebra.
func E13Homomorphism() *Report {
	r := &Report{
		ID:         "E13",
		Title:      "completeness of the statistical algebra (Fig 16, [MRS92])",
		PaperClaim: "for relational algebra operations there are statistical algebra operations producing the same macro-data",
	}
	rng := rand.New(rand.NewSource(14))
	const trials = 40
	passSel, passProj, passAgg, passUnion := 0, 0, 0, 0
	for i := 0; i < trials; i++ {
		census, err := workload.NewCensus(300+rng.Intn(700), 4, 3, rng.Int63())
		if err != nil {
			return r.fail(err)
		}
		sq := &metadata.Square{
			Micro:  census.Micro,
			Schema: census.Schema,
			Measures: []core.Measure{
				{Name: "population", Func: core.Count, Type: core.Stock},
				{Name: "income", Func: core.Sum, Type: core.Flow},
			},
			MeasureCols: map[string]string{"population": "", "income": "income"},
		}
		if sq.CheckSelection("race", []core.Value{"white", "asian"}) == nil {
			passSel++
		}
		if sq.CheckProjection("sex") == nil {
			passProj++
		}
		if sq.CheckAggregation("county", "state") == nil {
			passAgg++
		}
	}
	// Union squares: partition one census by state so the two micro-data
	// sets cover disjoint cells (the S-union setting — state agencies
	// contributing their own tabulations).
	for i := 0; i < trials; i++ {
		c, err := workload.NewCensus(400, 2, 2, rng.Int63())
		if err != nil {
			return r.fail(err)
		}
		part0, err := c.Micro.SelectEq("state", relstore.S("state-00"))
		if err != nil {
			return r.fail(err)
		}
		part1, err := c.Micro.SelectEq("state", relstore.S("state-01"))
		if err != nil {
			return r.fail(err)
		}
		sq := &metadata.Square{
			Micro:       part0,
			Schema:      c.Schema,
			Measures:    []core.Measure{{Name: "income", Func: core.Sum, Type: core.Flow}},
			MeasureCols: map[string]string{"income": "income"},
		}
		if err := sq.CheckUnion(part1); err == nil {
			passUnion++
		}
	}
	r.addf("selection   ↔ S-selection:   %d/%d squares commute", passSel, trials)
	r.addf("projection  ↔ S-projection:  %d/%d squares commute", passProj, trials)
	r.addf("roll-up     ↔ S-aggregation: %d/%d squares commute", passAgg, trials)
	r.addf("union       ↔ S-union:       %d/%d squares commute", passUnion, trials)
	if passSel != trials || passProj != trials || passAgg != trials || passUnion != trials {
		return r.fail(fmt.Errorf("a homomorphism square failed"))
	}
	r.Shape = "every tested relational operation has a statistical-algebra counterpart producing identical macro-data"
	return r
}

// E14Sampling — Section 5.6 [OR95]: sampling belongs inside the database.
func E14Sampling() *Report {
	r := &Report{
		ID:         "E14",
		Title:      "in-database sampling vs extract-then-sample (Section 5.6, [OR95])",
		PaperClaim: "it is very inefficient to extract large collections only to sample them outside the system",
	}
	rng := rand.New(rand.NewSource(15))
	const n, k = 1_000_000, 1000
	items := make([]float64, n)
	for i := range items {
		items[i] = float64(rng.Intn(100000))
	}
	var moved1, moved2 int
	t1 := timeIt(func() {
		_, moved1, _ = sampling.ExtractThenSample(items, k, rng)
	})
	t2 := timeIt(func() {
		_, moved2, _ = sampling.InDBSample(items, k, rng)
	})
	r.addf("population %d, sample %d:", n, k)
	r.addf("extract-then-sample: %8d items crossed the interface, %v", moved1, t1)
	r.addf("in-DB reservoir:     %8d items crossed the interface, %v", moved2, t2)
	r.addf("interface traffic ratio: %.0fx", ratio(float64(moved1), float64(moved2)))
	// B+tree sampling: rank-based vs acceptance/rejection.
	tr := btree.New[int, float64]()
	for i := 0; i < 100000; i++ {
		tr.Put(i, items[i])
	}
	var attempts int
	tRank := timeIt(func() { tr.SampleByRank(rng, k) })
	tAR := timeIt(func() { _, attempts = tr.SampleAcceptReject(rng, k) })
	r.addf("B+tree sampling of %d keys: rank-based %v; acceptance/rejection %v (%d descents for %d accepts)",
		tr.Len(), tRank, tAR, attempts, k)
	r.Shape = fmt.Sprintf("pushing the sample into the engine moves %.0fx less data; A/R sampling needs ~%.1f descents per accept",
		ratio(float64(moved1), float64(moved2)), float64(attempts)/float64(k))
	return r
}

// E15ClassificationMatching — Figure 17, Section 5.7: merging datasets
// with non-overlapping granularities via documented interpolation.
func E15ClassificationMatching() *Report {
	r := &Report{
		ID:         "E15",
		Title:      "classification matching across granularities (Fig 17, Section 5.7)",
		PaperClaim: "summaries from sources with incompatible categories need documented interpolation support",
	}
	// Ground truth: individuals with integer ages; two agencies tabulate
	// with different groupings; the merge must approximate the combined
	// truth.
	rng := rand.New(rand.NewSource(16))
	agesA, _ := hierarchy.ParseIntervals([]string{"0-5", "6-10", "11-15", "16-20"})
	agesB, _ := hierarchy.ParseIntervals([]string{"0-1", "2-10", "11-20"})
	const nA, nB = 30000, 30000
	tabulate := func(ivs []hierarchy.Interval, n int) ([]float64, []int) {
		counts := make([]float64, len(ivs))
		raw := make([]int, 0, n)
		for i := 0; i < n; i++ {
			age := rng.Intn(21)
			raw = append(raw, age)
			for j, iv := range ivs {
				if age >= iv.Lo && age <= iv.Hi {
					counts[j]++
					break
				}
			}
		}
		return counts, raw
	}
	countsA, rawA := tabulate(agesA, nA)
	countsB, rawB := tabulate(agesB, nB)
	merged, ref, rep, err := hierarchy.MergeAligned(countsA, agesA, countsB, agesB)
	if err != nil {
		return r.fail(err)
	}
	// Truth over the refinement.
	truth := make([]float64, len(ref))
	for _, age := range append(rawA, rawB...) {
		for j, iv := range ref {
			if age >= iv.Lo && age <= iv.Hi {
				truth[j]++
				break
			}
		}
	}
	worst := 0.0
	for j, iv := range ref {
		relErr := math.Abs(merged[j]-truth[j]) / math.Max(1, truth[j])
		if relErr > worst {
			worst = relErr
		}
		r.addf("bucket %-6s: merged %8.0f  truth %8.0f  (%.1f%% error)", iv, merged[j], truth[j], 100*relErr)
	}
	r.addf("method recorded in metadata: %q", rep.Method)
	r.Shape = fmt.Sprintf("uniform-density apportionment merges the two tabulations with ≤%.0f%% per-bucket error on near-uniform data, and documents itself", math.Ceil(100*worst))
	return r
}
