// Package core implements the Statistical Object — the data type
// Shoshani's "OLAP and Statistical Databases: Similarities and
// Differences" (PODS 1997) argues database systems should support
// natively (Section 8).
//
// A StatObject combines:
//
//   - a schema graph (package schema): the X-node cross product of
//     dimensions, each a C-node chain with its classification hierarchy;
//   - one or more summary measures (S-nodes) with their summary functions
//     and additivity types — several measures over the same dimensions
//     form the "complex statistical object" of Section 2.2;
//   - a cell store (the physical organization of Section 6) holding the
//     aggregated macro-data.
//
// On top of this structure the package defines the statistical algebra of
// [MRS92] (S-select, S-project, S-aggregation, S-union), the corresponding
// OLAP operators (slice, dice, roll-up, drill-down; Figure 14 gives the
// correspondence), the CUBE operator with ALL of [GB+96], the automatic
// aggregation semantics of [S82], and the summarizability checks of
// [RS90, LS97].
package core

import (
	"errors"
	"fmt"
	"strings"

	"statcube/internal/hierarchy"
	"statcube/internal/keyspace"
	"statcube/internal/schema"
)

// Value is a category value; re-exported for convenience.
type Value = hierarchy.Value

// Errors reported by statistical object construction and access.
var (
	ErrUnknownMeasure   = errors.New("core: unknown measure")
	ErrDuplicateMeasure = errors.New("core: duplicate measure name")
	ErrNoMeasures       = errors.New("core: no measures")
	ErrCoordMissing     = errors.New("core: missing coordinate for dimension")
	ErrCoordRange       = errors.New("core: bad coordinates")
)

// StatObject is a statistical object: a multidimensional dataset of
// summary measures over a cross product of classified dimensions.
type StatObject struct {
	sch      *schema.Graph
	measures []Measure
	byName   map[string]int
	offsets  []int // slot offset per measure
	nslots   int
	store    *MapStore

	// provenance: the finer-grained object this one was derived from, and
	// how — consulted by DrillDown (S-disaggregation, Section 5.3).
	origin   *StatObject
	originOp string
}

// New creates an empty statistical object over the given schema and
// measures, its cells held in a MapStore. It refuses a schema whose cross
// product of leaf values exceeds 2^64 cells, where linearized cell keys
// would wrap and merge distinct cells.
func New(sch *schema.Graph, measures []Measure) (*StatObject, error) {
	if sch == nil {
		return nil, errors.New("core: nil schema")
	}
	if len(measures) == 0 {
		return nil, ErrNoMeasures
	}
	shape := sch.Shape()
	if !keyspace.Fit(shape) {
		return nil, fmt.Errorf("core: cross product of shape %v exceeds 2^64 cells", shape)
	}
	o := &StatObject{
		sch:      sch,
		measures: append([]Measure(nil), measures...),
		byName:   map[string]int{},
	}
	for i, m := range o.measures {
		if m.Name == "" {
			return nil, errors.New("core: measure with empty name")
		}
		if _, dup := o.byName[m.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateMeasure, m.Name)
		}
		o.byName[m.Name] = i
		o.offsets = append(o.offsets, o.nslots)
		o.nslots += m.slots()
	}
	o.store = NewMapStore(shape, o.nslots)
	return o, nil
}

// MustNew is New for statically known objects; it panics on error.
func MustNew(sch *schema.Graph, measures []Measure) *StatObject {
	o, err := New(sch, measures)
	if err != nil {
		panic(err)
	}
	return o
}

// Schema returns the schema graph.
func (o *StatObject) Schema() *schema.Graph { return o.sch }

// Measures returns the summary measures.
func (o *StatObject) Measures() []Measure { return o.measures }

// Measure returns the named measure.
func (o *StatObject) Measure(name string) (Measure, error) {
	i, ok := o.byName[name]
	if !ok {
		return Measure{}, fmt.Errorf("%w: %q", ErrUnknownMeasure, name)
	}
	return o.measures[i], nil
}

// Cells returns the number of non-empty cells.
func (o *StatObject) Cells() int { return o.store.Cells() }

// Origin returns the finer object this one was derived from, if recorded.
func (o *StatObject) Origin() (*StatObject, string) { return o.origin, o.originOp }

// Coords resolves a map of dimension name -> leaf category value into
// ordinal coordinates in schema order. Every dimension must be present.
func (o *StatObject) Coords(by map[string]Value) ([]int, error) {
	dims := o.sch.Dimensions()
	coords := make([]int, len(dims))
	for i, d := range dims {
		v, ok := by[d.Name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrCoordMissing, d.Name)
		}
		ord, err := d.Class.ValueOrdinal(0, v)
		if err != nil {
			return nil, err
		}
		coords[i] = ord
	}
	if len(by) != len(dims) {
		for name := range by {
			if _, err := o.sch.Dimension(name); err != nil {
				return nil, err
			}
		}
	}
	return coords, nil
}

// Values converts ordinal coordinates back to leaf category values.
func (o *StatObject) Values(coords []int) []Value {
	dims := o.sch.Dimensions()
	out := make([]Value, len(dims))
	for i, d := range dims {
		out[i] = d.Class.LeafLevel().Values[coords[i]]
	}
	return out
}

// Observe folds one raw observation into the cell at the given
// coordinates: for each named measure, x is one micro-data value (for a
// Count measure x is ignored — the observation itself is counted).
// Measures not named are left untouched; a Min/Max measure that is never
// observed for a cell keeps its identity (±Inf), and an unobserved Avg
// reports NaN — "no observations" is visible, not silently zero.
func (o *StatObject) Observe(by map[string]Value, obs map[string]float64) error {
	coords, err := o.Coords(by)
	if err != nil {
		return err
	}
	return o.ObserveAt(coords, obs)
}

// ObserveAt is Observe with pre-resolved ordinal coordinates. A wrong
// coordinate count or an ordinal outside its dimension is refused with
// ErrCoordRange, an unknown measure name with ErrUnknownMeasure; either
// leaves the object unchanged.
func (o *StatObject) ObserveAt(coords []int, obs map[string]float64) error {
	for name := range obs {
		if _, ok := o.byName[name]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownMeasure, name)
		}
	}
	k, err := o.store.checkedKey(coords)
	if err != nil {
		return err
	}
	acc, ok := o.store.find(k)
	if !ok {
		acc = o.store.add(k)
		o.identitySlots(acc)
	}
	var pos [1]uint32 // the one row, into the one cell acc (see foldColumn)
	for i, m := range o.measures {
		if x, ok := obs[m.Name]; ok {
			col := [1]float64{x}
			foldColumn(m, acc, 0, o.offsets[i], pos[:], col[:])
		} else if m.Func == Count {
			foldColumn(m, acc, 0, o.offsets[i], pos[:], nil)
		}
	}
	return nil
}

// SetCell stores pre-aggregated macro-data values for a cell, replacing
// previous contents. For an Avg measure the value is stored with weight 1;
// use SetCellWeighted when the underlying count is known.
func (o *StatObject) SetCell(by map[string]Value, vals map[string]float64) error {
	coords, err := o.Coords(by)
	if err != nil {
		return err
	}
	slots := make([]float64, o.nslots)
	cur := make([]float64, o.nslots)
	if o.store.Get(coords, cur) {
		copy(slots, cur)
	} else {
		o.identitySlots(slots)
	}
	for name, v := range vals {
		i, ok := o.byName[name]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownMeasure, name)
		}
		m := o.measures[i]
		if m.Func == Avg {
			slots[o.offsets[i]] = v
			slots[o.offsets[i]+1] = 1
		} else {
			slots[o.offsets[i]] = v
		}
	}
	o.store.Put(coords, slots)
	return nil
}

// SetCellWeighted stores a pre-aggregated average with its supporting
// count, so further roll-ups re-weight correctly.
func (o *StatObject) SetCellWeighted(by map[string]Value, measure string, mean float64, count float64) error {
	coords, err := o.Coords(by)
	if err != nil {
		return err
	}
	i, ok := o.byName[measure]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMeasure, measure)
	}
	m := o.measures[i]
	if m.Func != Avg {
		return fmt.Errorf("core: SetCellWeighted requires an avg measure, %q is %v", measure, m.Func)
	}
	slots := make([]float64, o.nslots)
	if !o.store.Get(coords, slots) {
		o.identitySlots(slots)
	}
	slots[o.offsets[i]] = mean * count
	slots[o.offsets[i]+1] = count
	o.store.Put(coords, slots)
	return nil
}

func (o *StatObject) identitySlots(dst []float64) {
	for i, m := range o.measures {
		m.identity(dst[o.offsets[i] : o.offsets[i]+m.slots()])
	}
}

// CellValue returns the reported value of one measure at the cell, and
// whether the cell is non-empty.
func (o *StatObject) CellValue(by map[string]Value, measure string) (float64, bool, error) {
	coords, err := o.Coords(by)
	if err != nil {
		return 0, false, err
	}
	i, ok := o.byName[measure]
	if !ok {
		return 0, false, fmt.Errorf("%w: %q", ErrUnknownMeasure, measure)
	}
	slots := make([]float64, o.nslots)
	if !o.store.Get(coords, slots) {
		return 0, false, nil
	}
	m := o.measures[i]
	return m.value(slots[o.offsets[i] : o.offsets[i]+m.slots()]), true, nil
}

// ForEach visits every non-empty cell with its leaf category values and the
// reported value of each measure (in measure order). Iteration stops if fn
// returns false.
func (o *StatObject) ForEach(fn func(coords []Value, vals []float64) bool) {
	o.ForEachAt(func(coords []int, vals []float64) bool { return fn(o.Values(coords), vals) })
}

// ForEachAt is ForEach with each cell's leaf ordinals, one per dimension
// in schema order, in place of its values: the coded walk, in ascending
// linearized order. The callback must not retain coords or vals.
func (o *StatObject) ForEachAt(fn func(coords []int, vals []float64) bool) {
	vals := make([]float64, len(o.measures))
	o.store.ForEach(func(coords []int, slots []float64) bool {
		for i, m := range o.measures {
			vals[i] = m.value(slots[o.offsets[i] : o.offsets[i]+m.slots()])
		}
		return fn(coords, vals)
	})
}

// Total aggregates one measure over every cell — the grand total.
func (o *StatObject) Total(measure string) (float64, error) {
	i, ok := o.byName[measure]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownMeasure, measure)
	}
	m := o.measures[i]
	acc := make([]float64, m.slots())
	m.identity(acc)
	o.store.ForEach(func(coords []int, slots []float64) bool {
		m.merge(acc, slots[o.offsets[i]:o.offsets[i]+m.slots()])
		return true
	})
	return m.value(acc), nil
}

// String renders the object's conceptual structure in the style of the
// paper's Section 2 summaries.
func (o *StatObject) String() string {
	var b strings.Builder
	for _, m := range o.measures {
		fmt.Fprintf(&b, "Summary measure: %s", m.Name)
		if m.Unit != "" {
			fmt.Fprintf(&b, " (%s)", m.Unit)
		}
		fmt.Fprintf(&b, "\nSummary function: %s\n", m.Func)
	}
	var dims []string
	for _, d := range o.sch.Dimensions() {
		dims = append(dims, d.Name)
	}
	fmt.Fprintf(&b, "Dimensions: %s\n", strings.Join(dims, ", "))
	for _, d := range o.sch.Dimensions() {
		c := d.Class
		if c.NumLevels() > 1 {
			names := make([]string, c.NumLevels())
			for i := 0; i < c.NumLevels(); i++ {
				names[c.NumLevels()-1-i] = c.Level(i).Name
			}
			fmt.Fprintf(&b, "Classification hierarchy: %s\n", strings.Join(names, " --> "))
		}
	}
	return b.String()
}

// measureAccessor returns the measure index and a closure extracting its
// accumulator slice from a full slot vector.
func (o *StatObject) measureAccessor(name string) (int, func(slots []float64) []float64, error) {
	i, ok := o.byName[name]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %q", ErrUnknownMeasure, name)
	}
	off, n := o.offsets[i], o.measures[i].slots()
	return i, func(slots []float64) []float64 { return slots[off : off+n] }, nil
}
