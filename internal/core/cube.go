package core

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the data cube operator of Gray et al. [GB+96]
// (Sections 4.3 and 5.4, Figure 15): all 2^n summarizations of the
// multidimensional space at once, represented relationally with the
// reserved value ALL marking a dimension that has been summarized over.
// The row whose every dimension is ALL is the grand total.

// All is the reserved category value marking "summarized over this
// dimension" in cube output.
const All = Value("ALL")

// CubeCell is one row of cube output: a leaf category value or All per
// dimension, plus the reported value of each measure.
type CubeCell struct {
	Coords []Value
	Vals   []float64
}

// GroupingKey renders the coordinates as a stable string key, useful for
// joining cube output against other representations in tests. Category
// values containing "|" would make keys ambiguous; choose another joining
// scheme if your vocabulary includes it.
func (c CubeCell) GroupingKey() string { return strings.Join(c.Coords, "|") }

// Cube computes the full data cube: one CubeCell per combination of
// (value-or-ALL) per dimension that has at least one contributing cell.
// Every measure must be summable along every dimension (the cube sums in
// all directions), so the [LS97] additivity rules are checked up front.
//
// The result is ordered: rows sorted by their coordinate strings, ALL
// sorting after concrete values within each dimension. This is the
// conceptual operator; efficient cube construction algorithms (per-group
// ROLAP vs simultaneous MOLAP, [ZDN97]) live in package cube.
func (o *StatObject) Cube() ([]CubeCell, error) {
	dims := o.sch.Dimensions()
	n := len(dims)
	if n > 20 {
		return nil, fmt.Errorf("core: cube over %d dimensions is 2^%d group-bys; refusing", n, n)
	}
	for _, m := range o.measures {
		for _, d := range dims {
			if err := m.checkAdditive(d.Name, d.Temporal); err != nil {
				return nil, err
			}
		}
	}
	type agg struct {
		coords []Value
		slots  []float64
	}
	// A group is its mask of summarized dimensions plus the linearized
	// ordinals of the rest (masked ones zeroed): category values are not
	// unique once joined into one string, ordinals are.
	type group struct {
		mask uint32
		key  uint64
	}
	leaves := make([][]Value, n)
	for i, d := range dims {
		leaves[i] = d.Class.LeafLevel().Values
	}
	cells := map[group]*agg{}
	gc := make([]int, n)
	// For every stored cell and every subset of dimensions, fold the cell
	// into the subset's group (ALL in the masked-out positions).
	o.store.ForEach(func(coords []int, slots []float64) bool {
		for mask := uint32(0); mask < 1<<uint(n); mask++ {
			for i := range gc {
				if mask&(1<<uint(i)) != 0 {
					gc[i] = 0
				} else {
					gc[i] = coords[i]
				}
			}
			g := group{mask, o.store.key(gc)}
			a, ok := cells[g]
			if !ok {
				a = &agg{coords: make([]Value, n), slots: make([]float64, o.nslots)}
				for i := range a.coords {
					if mask&(1<<uint(i)) != 0 {
						a.coords[i] = All
					} else {
						a.coords[i] = leaves[i][coords[i]]
					}
				}
				o.identitySlots(a.slots)
				cells[g] = a
			}
			for i, m := range o.measures {
				m.merge(a.slots[o.offsets[i]:o.offsets[i]+m.slots()], slots[o.offsets[i]:o.offsets[i]+m.slots()])
			}
		}
		return true
	})
	out := make([]CubeCell, 0, len(cells))
	for _, a := range cells {
		vals := make([]float64, len(o.measures))
		for i, m := range o.measures {
			vals[i] = m.value(a.slots[o.offsets[i] : o.offsets[i]+m.slots()])
		}
		out = append(out, CubeCell{Coords: a.coords, Vals: vals})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Coords, out[j].Coords
		for k := range a {
			if a[k] != b[k] {
				// ALL sorts after concrete values.
				if a[k] == All {
					return false
				}
				if b[k] == All {
					return true
				}
				return a[k] < b[k]
			}
		}
		return false
	})
	return out, nil
}

// GroupBy summarizes over every dimension except the named ones — SQL's
// GROUP BY keepDims, one face of the cube lattice (Figure 22). It is
// sugar over SProject of the complement.
func (o *StatObject) GroupBy(keepDims ...string) (*StatObject, error) {
	keep := map[string]bool{}
	for _, d := range keepDims {
		if _, err := o.sch.Dimension(d); err != nil {
			return nil, err
		}
		keep[d] = true
	}
	var drop []string
	for _, d := range o.sch.Dimensions() {
		if !keep[d.Name] {
			drop = append(drop, d.Name)
		}
	}
	if len(drop) == 0 {
		return o, nil
	}
	return o.SProject(drop...)
}
