package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"statcube/internal/cube"
	"statcube/internal/workload"
)

const (
	measureName = "quantity sold"
	datasetName = "retail"
)

// levelNames are the parent levels of the three dimensions.
var levelNames = [3]string{"category", "city", "month"}

// viewMasks are the views the served engine materializes beyond the
// base cuboid: every two-dimensional group-by. They make the paper's
// §6.3 read/write/space trade visible: each publish pays to maintain
// them whether or not a read uses them.
var viewMasks = []int{0b011, 0b101, 0b110}

// size is a dataset's shape: NewRetail's arguments.
type size struct{ products, stores, days, facts int }

var (
	fullSize = size{100, 20, 180, 100000} // ~53 k base cells of a 360 k cell space
	// denseSize fills its 8 k cell space completely: the input on which
	// ROADMAP measured the naive builder beating both others.
	denseSize = size{20, 20, 20, 50000}
)

// dataset is everything generated from the seed before the engine
// starts: the retail object, its coded form and the oracle over it.
type dataset struct {
	retail *workload.Retail
	base   *cube.Input // one row per base cell, as statd -write mounts it
	oracle *oracle
}

// newDataset generates the retail dataset and codes it for the writer.
// The oracle is attached separately: it is the benchmark's, not the
// system's, and stays outside set-up time.
func newDataset(sz size, seed int64) (*dataset, error) {
	r, err := workload.NewRetail(sz.products, sz.stores, sz.days, sz.facts, seed)
	if err != nil {
		return nil, err
	}
	base, err := workload.CubeInputFromObject(r.Object)
	if err != nil {
		return nil, err
	}
	return &dataset{retail: r, base: base}, nil
}

// plan is one query: its text, its coded form for the oracle, and the
// URL spellings a client may send it under.
type plan struct {
	text string
	spec planSpec
	urls []string // urls[0] is the canonical spelling
}

// pick draws n distinct codes below limit.
func pick(rng *rand.Rand, limit, n int) []int {
	if n > limit {
		n = limit
	}
	codes := rng.Perm(limit)[:n]
	sort.Ints(codes) // an IN list is a set: one spelling per plan
	return codes
}

// The five plan shapes. They differ in which dimensions are grouped,
// restricted or rolled up, so the evaluator's scan, roll-up and collapse
// steps each carry weight in some shape.
func shape(rng *rand.Rand, o *oracle, i int) planSpec {
	nP, nS, nD := len(o.names[0][0]), len(o.names[1][0]), len(o.names[2][0])
	nCat, nCity, nMonth := len(o.names[0][1]), len(o.names[1][1]), len(o.names[2][1])
	switch i {
	case 0: // BY store WHERE product IN (2) AND month
		return planSpec{{roleWhere, 0, pick(rng, nP, 2)}, {roleBy, 0, nil}, {roleWhere, 1, pick(rng, nMonth, 1)}}
	case 1: // BY category, city WHERE day IN (2)
		return planSpec{{roleBy, 1, nil}, {roleBy, 1, nil}, {roleWhere, 0, pick(rng, nD, 2)}}
	case 2: // BY product WHERE store IN (2) AND month
		return planSpec{{roleBy, 0, nil}, {roleWhere, 0, pick(rng, nS, 2)}, {roleWhere, 1, pick(rng, nMonth, 1)}}
	case 3: // scalar WHERE category AND city AND day
		return planSpec{{roleWhere, 1, pick(rng, nCat, 1)}, {roleWhere, 1, pick(rng, nCity, 1)}, {roleWhere, 0, pick(rng, nD, 1)}}
	default: // BY day WHERE product IN (2)
		return planSpec{{roleWhere, 0, pick(rng, nP, 2)}, {roleAbsent, 0, nil}, {roleBy, 0, nil}}
	}
}

const numShapes = 5

// newPlans draws n distinct plans, cycling through the shapes so every
// shape has an equal share. A shape whose space runs out is skipped.
func newPlans(rng *rand.Rand, o *oracle, n int) []plan {
	seen := map[string]bool{}
	plans := make([]plan, 0, n)
	misses := 0
	for i := 0; len(plans) < n && misses < 100*numShapes; i++ {
		spec := shape(rng, o, i%numShapes)
		text := o.text(spec)
		if seen[text] {
			misses++
			continue
		}
		seen[text] = true
		misses = 0
		plans = append(plans, plan{text: text, spec: spec, urls: []string{queryURL(text)}})
	}
	return plans
}

func queryURL(text string) string { return "/query?q=" + url.QueryEscape(text) }

// respell adds two more spellings of a plan's text that normalize to
// the same plan: lower-case keywords and doubled whitespace.
func (p *plan) respell() {
	lower := p.text
	for _, kw := range []string{"SHOW ", " BY ", " WHERE ", " AND ", " IN "} {
		lower = strings.ReplaceAll(lower, kw, strings.ToLower(kw))
	}
	p.urls = append(p.urls, queryURL(lower), queryURL(strings.ReplaceAll(p.text, " ", "  ")))
}

// invalidTexts are requests whose correct outcome is a typed 400: parse
// errors, unknown names, and a dimension restricted twice.
var invalidTexts = []string{
	"SHOW",
	"SELECT * FROM sales",
	"SHOW quantity sold BY",
	"SHOW quantity sold BY nosuchdim",
	"SHOW no such measure BY store",
	"SHOW quantity sold WHERE store = ",
	"SHOW quantity sold BY store WHERE colour = red",
	"SHOW quantity sold WHERE day = day-0001 AND day = day-0002",
}

// batch is one append: coded rows, their values, and the POST body.
type batch struct {
	rows [][]int
	vals []float64
	body []byte
}

// newBatches draws n append batches of rowsPer facts each, uniform over
// the cell space with the dataset's own value range.
func newBatches(rng *rand.Rand, card []int, n, rowsPer int) ([]batch, error) {
	out := make([]batch, n)
	for i := range out {
		b := &out[i]
		for r := 0; r < rowsPer; r++ {
			row := make([]int, len(card))
			for d, c := range card {
				row[d] = rng.Intn(c)
			}
			b.rows = append(b.rows, row)
			b.vals = append(b.vals, float64(1+rng.Intn(200)))
		}
		body, err := json.Marshal(struct {
			Rows [][]int   `json:"rows"`
			Vals []float64 `json:"vals"`
		}{b.rows, b.vals})
		if err != nil {
			return nil, fmt.Errorf("marshal batch %d: %w", i, err)
		}
		b.body = body
	}
	return out, nil
}
