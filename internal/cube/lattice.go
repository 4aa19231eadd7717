// Package cube implements data-cube computation and view materialization
// — the OLAP efficiency core of Sections 6.3 and 6.6 of Shoshani's
// OLAP-vs-SDB survey:
//
//   - the 2^n group-by lattice of Figure 22 with the linear cost model of
//     Harinarayan, Ullman & Rajaraman [HUR96], their greedy view-selection
//     algorithm (with its (1-1/e) benefit guarantee) and an exhaustive
//     optimum for small lattices;
//   - full cube construction the ROLAP way (one hash group-by per view
//     from the base table, or each view from its smallest materialized
//     parent) and the MOLAP way (array-based simultaneous aggregation in
//     the spirit of Zhao, Deshpande & Naughton [ZDN97]), whose relative
//     performance reproduces the Section 6.6 debate.
package cube

import (
	"fmt"
	"math/bits"
	"sort"
)

// Lattice is the 2^n view lattice over n dimensions: view `mask` groups by
// the dimensions whose bit is set; mask 0 is the grand total (the apex),
// the full mask is the base cuboid. An edge exists from w to v when v ⊂ w:
// v is derivable from w (Figure 22's derivation lines).
type Lattice struct {
	names []string
	card  []int64
	base  int64   // number of rows/cells of the base cuboid
	sizes []int64 // estimated view sizes per mask
}

// NewLattice builds a lattice for dimensions with the given names and
// cardinalities. baseRows is the observed size of the base cuboid; view
// sizes are estimated as min(∏ cardinalities, baseRows), the standard
// upper-bound estimate [HUR96] use in their examples.
func NewLattice(names []string, card []int, baseRows int64) (*Lattice, error) {
	if len(names) != len(card) || len(names) == 0 {
		return nil, fmt.Errorf("cube: %d names for %d cardinalities", len(names), len(card))
	}
	if len(names) > 24 {
		return nil, fmt.Errorf("cube: %d dimensions means 2^%d views; refusing", len(names), len(names))
	}
	l := &Lattice{names: append([]string(nil), names...), base: baseRows}
	for _, c := range card {
		if c <= 0 {
			return nil, fmt.Errorf("cube: cardinality %d", c)
		}
		l.card = append(l.card, int64(c))
	}
	n := len(names)
	l.sizes = make([]int64, 1<<uint(n))
	for mask := range l.sizes {
		size := int64(1)
		for d := 0; d < n; d++ {
			if mask&(1<<uint(d)) != 0 {
				size *= l.card[d]
				if size > baseRows {
					size = baseRows
					break
				}
			}
		}
		if size > baseRows {
			size = baseRows
		}
		l.sizes[mask] = size
	}
	return l, nil
}

// NumDims returns the number of dimensions.
func (l *Lattice) NumDims() int { return len(l.names) }

// NumViews returns 2^n.
func (l *Lattice) NumViews() int { return len(l.sizes) }

// BaseMask returns the mask of the base cuboid (all dimensions).
func (l *Lattice) BaseMask() int { return len(l.sizes) - 1 }

// ViewSize returns the estimated size of a view.
func (l *Lattice) ViewSize(mask int) int64 { return l.sizes[mask] }

// SetViewSize overrides an estimate with an observed size.
func (l *Lattice) SetViewSize(mask int, size int64) { l.sizes[mask] = size }

// ViewName renders a view's grouped dimensions, "()" for the apex.
func (l *Lattice) ViewName(mask int) string {
	if mask == 0 {
		return "()"
	}
	var parts []string
	for d := 0; d < len(l.names); d++ {
		if mask&(1<<uint(d)) != 0 {
			parts = append(parts, l.names[d])
		}
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += ", " + p
	}
	return out
}

// DerivableFrom reports whether view v can be computed from view w
// (v's dimensions are a subset of w's).
func DerivableFrom(v, w int) bool { return v&w == v }

// SmallestParent returns the cheapest view in materialized from which v is
// derivable, and whether one exists. Cost is the parent's estimated size
// (linear scan cost model); ties go to the lowest mask.
func (l *Lattice) SmallestParent(v int, materialized []int) (int, int64, bool) {
	return smallestAncestor(v, materialized, l.ViewSize)
}

// TotalCost returns the total cost of answering one query per view, each
// from its cheapest materialized ancestor — the [HUR96] objective. The
// base cuboid is always implicitly materialized.
func (l *Lattice) TotalCost(materialized []int) int64 {
	mats := append([]int{l.BaseMask()}, materialized...)
	var t int64
	for v := 0; v < len(l.sizes); v++ {
		_, c, _ := l.SmallestParent(v, mats)
		t += c
	}
	return t
}

// Views returns all masks sorted by ascending popcount then value, a
// convenient traversal order (apex first, base last).
func (l *Lattice) Views() []int {
	out := make([]int, len(l.sizes))
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(a, b int) bool {
		pa, pb := bits.OnesCount(uint(out[a])), bits.OnesCount(uint(out[b]))
		if pa != pb {
			return pa < pb
		}
		return out[a] < out[b]
	})
	return out
}
