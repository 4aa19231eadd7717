package main

import (
	"fmt"
	"strings"

	"statcube/internal/hierarchy"
	"statcube/internal/workload"
)

// The oracle answers the benchmark's plans by a naive fold over the
// retail dataset's coded facts, rolling a leaf code up through the
// classification's parent relation where a plan names the upper level.
// It shares no code with internal/core or internal/query: the engine's
// answers are compared with it cell by cell, so it must not inherit
// their bugs.

// Roles a dimension can play in a plan.
const (
	roleAbsent = iota // summarized away
	roleBy            // kept, grouped at level
	roleWhere         // restricted to values at level
)

// dimSpec is one dimension's part of a plan. Level 0 is the leaf level
// (product, store, day), level 1 its parent (category, city, month).
// Values are codes at that level and are only read for roleWhere.
type dimSpec struct {
	role   int
	level  int
	values []int
}

// planSpec is a plan in coded form, one dimSpec per dimension in schema
// order (product, store, day).
type planSpec [3]dimSpec

// answer is a decoded result: the kept dimensions in schema order and
// one summed value per coordinate tuple (coordinates joined by keySep).
type answer struct {
	dims  []string
	cells map[string]float64
}

const keySep = "\x00"

type oracle struct {
	dimNames [3]string
	names    [3][2][]string // [dim][level] code -> value name
	parent   [3][]int       // [dim] leaf code -> parent code
	rows     [][]int        // the dataset's facts
	vals     []float64
}

func newOracle(r *workload.Retail) (*oracle, error) {
	o := &oracle{rows: r.Input.Rows, vals: r.Input.Vals}
	for d, cls := range []*hierarchy.Classification{r.ProductClass, r.StoreClass, r.DayClass} {
		o.dimNames[d] = r.DimNames[d]
		leaves, parents := cls.Level(0).Values, cls.Level(1).Values
		code := make(map[string]int, len(parents))
		for i, p := range parents {
			o.names[d][1] = append(o.names[d][1], string(p))
			code[string(p)] = i
		}
		for _, leaf := range leaves {
			o.names[d][0] = append(o.names[d][0], string(leaf))
			ps, err := cls.Parents(0, leaf)
			if err != nil {
				return nil, fmt.Errorf("oracle: parents of %s %q: %w", o.dimNames[d], leaf, err)
			}
			if len(ps) != 1 {
				return nil, fmt.Errorf("oracle: %s %q has parents %v, want exactly one", o.dimNames[d], leaf, ps)
			}
			o.parent[d] = append(o.parent[d], code[string(ps[0])])
		}
	}
	return o, nil
}

// keptDims lists the dimensions a plan's result keeps: the BY
// dimensions, or, for a plan with none, the restricted dimension whose
// name sorts last (the query language collapses restricted dimensions in
// name order and never the last one standing).
func (o *oracle) keptDims(p planSpec) []int {
	var kept []int
	last := -1
	for d, s := range p {
		switch s.role {
		case roleBy:
			kept = append(kept, d)
		case roleWhere:
			if last < 0 || o.dimNames[d] > o.dimNames[last] {
				last = d
			}
		}
	}
	if len(kept) == 0 && last >= 0 {
		kept = []int{last}
	}
	return kept
}

// fold sums the facts (rows, vals) a plan selects into its result cells.
func (o *oracle) fold(p planSpec, rows [][]int, vals []float64) map[string]float64 {
	kept := o.keptDims(p)
	var allowed [3][]bool
	for d, s := range p {
		if s.role == roleWhere {
			allowed[d] = make([]bool, len(o.names[d][s.level]))
			for _, v := range s.values {
				allowed[d][v] = true
			}
		}
	}
	// Group on a small integer key first; names are attached once per
	// result cell, not once per fact.
	sums := map[[3]int]float64{}
	for ri, row := range rows {
		var at [3]int
		keep := true
		for d, s := range p {
			c := row[d]
			if s.level == 1 {
				c = o.parent[d][c]
			}
			if allowed[d] != nil && !allowed[d][c] {
				keep = false
				break
			}
			at[d] = c
		}
		if !keep {
			continue
		}
		var k [3]int
		for _, d := range kept {
			k[d] = at[d]
		}
		sums[k] += vals[ri]
	}
	cells := make(map[string]float64, len(sums))
	coords := make([]string, len(kept))
	for k, v := range sums {
		for i, d := range kept {
			coords[i] = o.names[d][p[d].level][k[d]]
		}
		cells[strings.Join(coords, keySep)] = v
	}
	return cells
}

// answer evaluates a plan over the dataset's own facts.
func (o *oracle) answer(p planSpec) answer {
	a := answer{cells: o.fold(p, o.rows, o.vals)}
	for _, d := range o.keptDims(p) {
		a.dims = append(a.dims, o.dimNames[d])
	}
	return a
}

// total is the grand total of a set of measure values.
func total(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

// groupBy computes one lattice view of a coded fact table the naive way:
// the key is the mixed-radix number of the masked codes, dimensions in
// ascending order, which is the key layout cube.Views documents.
func groupBy(card []int, rows [][]int, vals []float64, mask int) map[uint64]float64 {
	out := map[uint64]float64{}
	for ri, row := range rows {
		var k uint64
		for d, c := range row {
			if mask&(1<<uint(d)) != 0 {
				k = k*uint64(card[d]) + uint64(c)
			}
		}
		out[k] += vals[ri]
	}
	return out
}

// sameView reports whether two views hold the same keys and sums. Every
// measure value is a small integer, so sums are exact in any order.
func sameView(a, b map[uint64]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if bv, ok := b[k]; !ok || av != bv {
			return false
		}
	}
	return true
}

// text renders a plan in the concise query language.
func (o *oracle) text(p planSpec) string {
	var by, where []string
	for d, s := range p {
		name := o.dimNames[d]
		if s.level == 1 {
			name = levelNames[d]
		}
		switch s.role {
		case roleBy:
			by = append(by, name)
		case roleWhere:
			vs := make([]string, len(s.values))
			for i, v := range s.values {
				vs[i] = o.names[d][s.level][v]
			}
			if len(vs) == 1 {
				where = append(where, name+" = "+vs[0])
			} else {
				where = append(where, name+" IN ("+strings.Join(vs, ", ")+")")
			}
		}
	}
	q := "SHOW " + measureName
	if len(by) > 0 {
		q += " BY " + strings.Join(by, ", ")
	}
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	return q
}

// equal reports whether a served result (dims, measures, cells decoded
// from the wire) matches the expected cells.
func (a answer) equal(dims, measures []string, coords [][]string, values [][]float64) error {
	if strings.Join(dims, ",") != strings.Join(a.dims, ",") {
		return fmt.Errorf("dims %v, want %v", dims, a.dims)
	}
	if len(measures) != 1 || measures[0] != measureName {
		return fmt.Errorf("measures %v, want [%s]", measures, measureName)
	}
	if len(coords) != len(a.cells) {
		return fmt.Errorf("%d cells, want %d", len(coords), len(a.cells))
	}
	for i, c := range coords {
		want, ok := a.cells[strings.Join(c, keySep)]
		if !ok || len(values[i]) != 1 || values[i][0] != want {
			return fmt.Errorf("cell %v = %v, want %v (present %v)", c, values[i], want, ok)
		}
	}
	return nil
}
