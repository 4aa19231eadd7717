// Package workload generates the synthetic datasets the benchmarks and
// examples run on, standing in for the proprietary data of the paper's
// application areas (Section 3): census micro-data with a geographic
// classification hierarchy, retail transactions with Zipf-popular products
// over a store/city and day/month hierarchy, stock-market time series over
// weekday trading days, and HMO visits with a non-strict multi-specialty
// physician classification.
//
// Every generator is seeded and deterministic.
package workload

import (
	"fmt"
	"math/rand"

	"statcube/internal/core"
	"statcube/internal/cube"
	"statcube/internal/hierarchy"
	"statcube/internal/privacy"
	"statcube/internal/relstore"
	"statcube/internal/schema"
	"statcube/internal/stats"
)

// Census bundles a census micro-data set in every representation the
// benches need: a relation, a privacy table over the same individuals, and
// the geographic classification.
type Census struct {
	Micro   *relstore.Relation
	Privacy *privacy.Table
	Geo     *hierarchy.Classification // county --> state
	Schema  *schema.Graph             // geo(county), race, sex, age_group
	Races   []string
	Sexes   []string
	Ages    []string
}

// NewCensus generates nPeople individuals across nStates states with
// countiesPerState counties each.
func NewCensus(nPeople, nStates, countiesPerState int, seed int64) (*Census, error) {
	if nPeople <= 0 || nStates <= 0 || countiesPerState <= 0 {
		return nil, fmt.Errorf("workload: invalid census parameters %d/%d/%d", nPeople, nStates, countiesPerState)
	}
	rng := rand.New(rand.NewSource(seed))
	states := make([]string, nStates)
	var counties []string
	countyState := map[string]string{}
	for s := range states {
		states[s] = fmt.Sprintf("state-%02d", s)
		for c := 0; c < countiesPerState; c++ {
			county := fmt.Sprintf("county-%02d-%02d", s, c)
			counties = append(counties, county)
			countyState[county] = states[s]
		}
	}
	gb := hierarchy.NewBuilder("geo", "county", counties...).Level("state", states...)
	for _, county := range counties {
		gb.Parent(county, countyState[county])
	}
	geo, err := gb.Build()
	if err != nil {
		return nil, err
	}
	races := []string{"white", "black", "asian", "native", "other"}
	sexes := []string{"male", "female"}
	ages := []string{"0-17", "18-34", "35-49", "50-64", "65-120"}
	rel := relstore.MustNewRelation("census",
		relstore.Column{Name: "county", Kind: relstore.KString},
		relstore.Column{Name: "state", Kind: relstore.KString},
		relstore.Column{Name: "race", Kind: relstore.KString},
		relstore.Column{Name: "sex", Kind: relstore.KString},
		relstore.Column{Name: "age_group", Kind: relstore.KString},
		relstore.Column{Name: "income", Kind: relstore.KFloat},
	)
	pCounty := make([]string, nPeople)
	pState := make([]string, nPeople)
	pRace := make([]string, nPeople)
	pSex := make([]string, nPeople)
	pAge := make([]string, nPeople)
	pIncome := make([]float64, nPeople)
	for i := 0; i < nPeople; i++ {
		county := counties[rng.Intn(len(counties))]
		pCounty[i] = county
		pState[i] = countyState[county]
		pRace[i] = races[rng.Intn(len(races))]
		pSex[i] = sexes[rng.Intn(2)]
		pAge[i] = ages[rng.Intn(len(ages))]
		pIncome[i] = 15000 + float64(rng.Intn(120000))
		rel.MustAppend(relstore.Row{
			relstore.S(pCounty[i]), relstore.S(pState[i]), relstore.S(pRace[i]),
			relstore.S(pSex[i]), relstore.S(pAge[i]), relstore.F(pIncome[i]),
		})
	}
	pt := privacy.NewTable(nPeople)
	for name, col := range map[string][]string{
		"county": pCounty, "state": pState, "race": pRace, "sex": pSex, "age_group": pAge,
	} {
		if err := pt.AddCat(name, col); err != nil {
			return nil, err
		}
	}
	if err := pt.AddNum("income", pIncome); err != nil {
		return nil, err
	}
	sch, err := schema.New("census",
		schema.Dimension{Name: "county", Class: geo},
		schema.Dimension{Name: "race", Class: hierarchy.FlatClassification("race", races...)},
		schema.Dimension{Name: "sex", Class: hierarchy.FlatClassification("sex", sexes...)},
		schema.Dimension{Name: "age_group", Class: hierarchy.FlatClassification("age_group", ages...)},
	)
	if err != nil {
		return nil, err
	}
	return &Census{Micro: rel, Privacy: pt, Geo: geo, Schema: sch, Races: races, Sexes: sexes, Ages: ages}, nil
}

// Retail bundles a retail-transactions dataset: the coded fact input for
// cube construction, the assembled statistical object, and the
// classifications.
type Retail struct {
	Input        *cube.Input
	Object       *core.StatObject
	ProductClass *hierarchy.Classification // product --> category (primary)
	PriceClass   *hierarchy.Classification // product --> price band (alternative, §3.2(i))
	StoreClass   *hierarchy.Classification // store --> city
	DayClass     *hierarchy.Classification // day --> month
	DimNames     []string
	Products     []string
	Stores       []string
	Days         []string
}

// NewRetail generates nTx transactions over nProducts products (Zipf
// popularity), nStores stores spread over cities of up to 4 stores, and
// nDays days grouped into 30-day months.
func NewRetail(nProducts, nStores, nDays, nTx int, seed int64) (*Retail, error) {
	if nProducts <= 0 || nStores <= 0 || nDays <= 0 || nTx < 0 {
		return nil, fmt.Errorf("workload: invalid retail parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	r := &Retail{DimNames: []string{"product", "store", "day"}}

	r.Products = make([]string, nProducts)
	nCats := (nProducts + 9) / 10
	cats := make([]string, nCats)
	for c := range cats {
		cats[c] = fmt.Sprintf("category-%02d", c)
	}
	pb := func() *hierarchy.Builder {
		for p := range r.Products {
			r.Products[p] = fmt.Sprintf("product-%04d", p)
		}
		b := hierarchy.NewBuilder("product", "product", r.Products...).Level("category", cats...)
		for p, name := range r.Products {
			b.Parent(name, cats[p/10])
		}
		return b
	}()
	var err error
	r.ProductClass, err = pb.Build()
	if err != nil {
		return nil, err
	}
	// The alternative classification of the same products — by price band
	// instead of category ("multiple classifications over the same
	// dimension", Section 3.2(i)).
	bands := []string{"budget", "mid-range", "premium"}
	pc := hierarchy.NewBuilder("by-price", "product", r.Products...).
		Level("price band", bands...)
	for p, name := range r.Products {
		pc.Parent(name, bands[p%len(bands)])
	}
	r.PriceClass, err = pc.Build()
	if err != nil {
		return nil, err
	}

	r.Stores = make([]string, nStores)
	nCities := (nStores + 3) / 4
	cities := make([]string, nCities)
	for c := range cities {
		cities[c] = fmt.Sprintf("city-%02d", c)
	}
	sb := hierarchy.NewBuilder("store", "store", func() []string {
		for s := range r.Stores {
			r.Stores[s] = fmt.Sprintf("store-%03d", s)
		}
		return r.Stores
	}()...).Level("city", cities...)
	for s, name := range r.Stores {
		sb.Parent(name, cities[s/4])
	}
	sb.IDDependent()
	r.StoreClass, err = sb.Build()
	if err != nil {
		return nil, err
	}

	r.Days = make([]string, nDays)
	nMonths := (nDays + 29) / 30
	months := make([]string, nMonths)
	for m := range months {
		months[m] = fmt.Sprintf("month-%02d", m)
	}
	db := hierarchy.NewBuilder("day", "day", func() []string {
		for d := range r.Days {
			r.Days[d] = fmt.Sprintf("day-%04d", d)
		}
		return r.Days
	}()...).Level("month", months...)
	for d, name := range r.Days {
		db.Parent(name, months[d/30])
	}
	db.IDDependent()
	r.DayClass, err = db.Build()
	if err != nil {
		return nil, err
	}

	sch, err := schema.New("retail sales",
		schema.Dimension{Name: "product", Class: r.ProductClass},
		schema.Dimension{Name: "store", Class: r.StoreClass},
		schema.Dimension{Name: "day", Class: r.DayClass, Temporal: true},
	)
	if err != nil {
		return nil, err
	}
	r.Object, err = core.New(sch, []core.Measure{{Name: "quantity sold", Unit: "dollars", Func: core.Sum, Type: core.Flow}})
	if err != nil {
		return nil, err
	}
	// The facts, drawn in the generator's fixed order, coded into rows cut
	// from one slab, then loaded as one batch.
	r.Input = &cube.Input{Card: []int{nProducts, nStores, nDays}, Rows: make([][]int, nTx), Vals: make([]float64, nTx)}
	slab := make([]int, 3*nTx)
	var zipf *rand.Zipf
	if nProducts > 1 {
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(nProducts-1))
	}
	for i := 0; i < nTx; i++ {
		p := 0
		if zipf != nil {
			p = int(zipf.Uint64())
		}
		s := rng.Intn(nStores)
		d := rng.Intn(nDays)
		row := slab[3*i : 3*i+3 : 3*i+3]
		row[0], row[1], row[2] = p, s, d
		r.Input.Rows[i] = row
		r.Input.Vals[i] = float64(1 + rng.Intn(200))
	}
	if err := r.Object.ObserveRows(r.Input.Rows, map[string][]float64{"quantity sold": r.Input.Vals}); err != nil {
		return nil, err
	}
	return r, nil
}

// StockSeries is a random-walk daily price series over trading weekdays,
// tagged with week and month period labels for rollups.
type StockSeries struct {
	Days   []string // "w03-d2" style labels
	Prices []float64
	Weekly []stats.Observation
	Month  []stats.Observation
}

// NewStockSeries generates weeks × 5 trading days of prices.
func NewStockSeries(weeks int, seed int64) (*StockSeries, error) {
	if weeks <= 0 {
		return nil, fmt.Errorf("workload: weeks = %d", weeks)
	}
	rng := rand.New(rand.NewSource(seed))
	s := &StockSeries{}
	price := 100.0
	for w := 0; w < weeks; w++ {
		for d := 0; d < 5; d++ { // weekdays only, as the paper notes
			price += rng.NormFloat64() * 2
			if price < 1 {
				price = 1
			}
			s.Days = append(s.Days, fmt.Sprintf("w%03d-d%d", w, d))
			s.Prices = append(s.Prices, price)
			s.Weekly = append(s.Weekly, stats.Observation{Period: fmt.Sprintf("w%03d", w), Value: price})
			s.Month = append(s.Month, stats.Observation{Period: fmt.Sprintf("m%02d", w/4), Value: price})
		}
	}
	return s, nil
}

// HMO bundles an HMO visits dataset whose physician classification is
// non-strict (multi-specialty physicians), the Section 3.2(iii) hazard.
type HMO struct {
	Object      *core.StatObject
	Physicians  *hierarchy.Classification // physician --> specialty (non-strict)
	Specialties []string
	MultiCount  int // physicians carrying two specialties
}

// NewHMO generates nPhysicians physicians (a fraction with two
// specialties) and nVisits visits with costs.
func NewHMO(nPhysicians, nVisits int, multiFraction float64, seed int64) (*HMO, error) {
	if nPhysicians <= 0 || nVisits < 0 || multiFraction < 0 || multiFraction > 1 {
		return nil, fmt.Errorf("workload: invalid HMO parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	specs := []string{"oncology", "pulmonology", "cardiology", "neurology"}
	phys := make([]string, nPhysicians)
	for i := range phys {
		phys[i] = fmt.Sprintf("dr-%04d", i)
	}
	b := hierarchy.NewBuilder("physician", "physician", phys...).Level("specialty", specs...)
	multi := 0
	for i, p := range phys {
		first := rng.Intn(len(specs))
		b.Parent(p, specs[first])
		if rng.Float64() < multiFraction {
			second := (first + 1 + rng.Intn(len(specs)-1)) % len(specs)
			b.Parent(p, specs[second])
			multi++
		}
		_ = i
	}
	cls, err := b.Build()
	if err != nil {
		return nil, err
	}
	years := []string{"1995", "1996"}
	sch, err := schema.New("hmo visits",
		schema.Dimension{Name: "physician", Class: cls},
		schema.Dimension{Name: "year", Class: hierarchy.FlatClassification("year", years...), Temporal: true},
	)
	if err != nil {
		return nil, err
	}
	obj, err := core.New(sch, []core.Measure{
		{Name: "cost", Unit: "dollars", Func: core.Sum, Type: core.Flow},
		{Name: "visits", Func: core.Count, Type: core.Flow},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < nVisits; i++ {
		err := obj.Observe(map[string]core.Value{
			"physician": phys[rng.Intn(nPhysicians)],
			"year":      years[rng.Intn(2)],
		}, map[string]float64{"cost": float64(50 + rng.Intn(2000))})
		if err != nil {
			return nil, err
		}
	}
	return &HMO{Object: obj, Physicians: cls, Specialties: specs, MultiCount: multi}, nil
}

// CubeInputFromObject codes a statistical object's cells into a cube
// fact table: each dimension's leaf values index in classification
// order — the object's own ordinals — one row per stored cell, the first
// measure as the value. The CLIs use it to snapshot an object as a cube
// and to code appended facts through the same dictionary, so offline
// loads and the daemon's write path share one lineage.
func CubeInputFromObject(obj *core.StatObject) (*cube.Input, error) {
	card := obj.Schema().Shape()
	if len(card) == 0 {
		return nil, fmt.Errorf("workload: object has no dimensions to snapshot")
	}
	d, n := len(card), obj.Cells()
	in := &cube.Input{Card: card, Rows: make([][]int, 0, n), Vals: make([]float64, 0, n)}
	slab := make([]int, d*n)
	obj.ForEachAt(func(coords []int, vals []float64) bool {
		lo := d * len(in.Rows)
		row := slab[lo : lo+d : lo+d]
		copy(row, coords)
		in.Rows = append(in.Rows, row)
		in.Vals = append(in.Vals, vals[0])
		return true
	})
	return in, in.Validate()
}
