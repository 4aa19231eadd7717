package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"statcube/internal/budget"
	"statcube/internal/hierarchy"
	"statcube/internal/schema"
)

// This file implements the statistical algebra of [MRS92] (Section 5.2)
// and the corresponding OLAP operators (Section 5.3, Figure 14):
//
//	OLAP            Statistical DB
//	-----           --------------
//	Slice           S-projection
//	Dice            S-selection
//	Roll up         S-aggregation
//	Drill down      S-disaggregation
//	---             S-union
//
// Every operator returns a new StatObject, its cells in their own sorted
// MapStore, and records provenance so drill-down can recover detail.

// ErrUnionConflict is returned by SUnion when overlapping cells disagree.
var ErrUnionConflict = errors.New("core: union conflict: overlapping cells disagree")

// ErrNoFinerData is returned by DrillDown when no finer-grained origin is
// recorded.
var ErrNoFinerData = errors.New("core: no finer-grained origin to drill down into")

// derive creates an empty object with the same measures over a new schema.
func (o *StatObject) derive(sch *schema.Graph, op string) *StatObject {
	d := MustNew(sch, o.measures)
	d.origin = o
	d.originOp = op
	return d
}

// replaceDim builds a schema identical to o's with one dimension's
// classification replaced.
func (o *StatObject) replaceDim(dim string, cls *hierarchy.Classification) (*schema.Graph, error) {
	dims := append([]schema.Dimension(nil), o.sch.Dimensions()...)
	found := false
	for i := range dims {
		if dims[i].Name == dim {
			dims[i].Class = cls
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", schema.ErrUnknownDimension, dim)
	}
	return schema.New(o.sch.Name, dims...)
}

// SSelect restricts one dimension to a subset of its leaf category values
// — the S-selection of [MRS92], the "dice" of OLAP when applied to several
// dimensions. The multidimensional space keeps the dimension (cardinality
// is reduced, not eliminated).
func (o *StatObject) SSelect(dim string, values ...Value) (*StatObject, error) {
	d, err := o.sch.Dimension(dim)
	if err != nil {
		return nil, err
	}
	restricted, err := d.Class.Restrict(values)
	if err != nil {
		return nil, err
	}
	nsch, err := o.replaceDim(dim, restricted)
	if err != nil {
		return nil, err
	}
	out := o.derive(nsch, "s-select:"+dim)
	di, _ := o.sch.DimIndex(dim)
	keep := map[int]int{} // old ordinal -> new ordinal
	for newOrd, v := range values {
		oldOrd, err := d.Class.ValueOrdinal(0, v)
		if err != nil {
			return nil, err
		}
		keep[oldOrd] = newOrd
	}
	o.store.ForEach(func(coords []int, slots []float64) bool {
		newOrd, ok := keep[coords[di]]
		if !ok {
			return true
		}
		nc := append([]int(nil), coords...)
		nc[di] = newOrd
		out.store.Put(nc, append([]float64(nil), slots...))
		return true
	})
	recordOp(o.Cells(), out.Cells())
	return out, nil
}

// SSelectLevel restricts a dimension by values of a non-leaf level of its
// classification: the retained leaves are the descendants of the chosen
// higher-level values (e.g. keep the professions under "engineer").
func (o *StatObject) SSelectLevel(dim, level string, values ...Value) (*StatObject, error) {
	d, err := o.sch.Dimension(dim)
	if err != nil {
		return nil, err
	}
	li, err := d.Class.LevelIndex(level)
	if err != nil {
		return nil, err
	}
	seen := map[Value]bool{}
	var leaves []Value
	for _, v := range values {
		desc, err := d.Class.Descendants(li, v, 0)
		if err != nil {
			return nil, err
		}
		for _, leafV := range desc {
			if !seen[leafV] {
				seen[leafV] = true
				leaves = append(leaves, leafV)
			}
		}
	}
	if len(leaves) == 0 {
		return nil, fmt.Errorf("hierarchy: no leaf values under %v at level %q", values, level)
	}
	return o.SSelect(dim, leaves...)
}

// SSelectByProperty restricts a dimension to the leaf values whose
// classification property key equals want (the [LRT96]-style selection,
// e.g. Brand = "Sanyo").
func (o *StatObject) SSelectByProperty(dim, key, want string) (*StatObject, error) {
	d, err := o.sch.Dimension(dim)
	if err != nil {
		return nil, err
	}
	vals := d.Class.SelectByProperty(0, key, want)
	if len(vals) == 0 {
		return nil, fmt.Errorf("core: no values of %q have %s=%q", dim, key, want)
	}
	return o.SSelect(dim, vals...)
}

// Dice applies S-selection to several dimensions at once — OLAP's "dice".
func (o *StatObject) Dice(ranges map[string][]Value) (*StatObject, error) {
	cur := o
	var err error
	for dim, vals := range ranges {
		cur, err = cur.SSelect(dim, vals...)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// SProject summarizes over all values of the named dimensions, removing
// them from the multidimensional space — the S-projection of [MRS92];
// OLAP's "slice" in its summarize-over-a-dimension reading (Section 4.4).
// Summarizability of each measure along each removed dimension is checked.
func (o *StatObject) SProject(removeDims ...string) (*StatObject, error) {
	return o.SProjectCtx(context.Background(), removeDims...)
}

// SProjectCtx is SProject with a context — the cancellable,
// budget-governed entry point. The store scan checks ctx between cell
// segments, so canceling mid-scan returns budget.ErrCanceled promptly
// with no partial result; a governor on ctx has the output cells charged
// against its quota.
func (o *StatObject) SProjectCtx(ctx context.Context, removeDims ...string) (*StatObject, error) {
	if len(removeDims) == 0 {
		return o, nil
	}
	remove := map[string]bool{}
	for _, name := range removeDims {
		d, err := o.sch.Dimension(name)
		if err != nil {
			return nil, err
		}
		for _, m := range o.measures {
			if err := m.checkAdditive(name, d.Temporal); err != nil {
				recordRejection()
				return nil, err
			}
		}
		remove[name] = true
	}
	var keepDims []schema.Dimension
	var keepIdx []int
	for i, d := range o.sch.Dimensions() {
		if !remove[d.Name] {
			keepDims = append(keepDims, d)
			keepIdx = append(keepIdx, i)
		}
	}
	if len(keepDims) == 0 {
		return nil, errors.New("core: SProject would remove every dimension; use Total")
	}
	nsch, err := schema.New(o.sch.Name, keepDims...)
	if err != nil {
		return nil, err
	}
	out := o.derive(nsch, "s-project")
	nc := make([]int, len(keepIdx))
	err = o.groupFold(ctx, out, func(coords []int, emit func([]int)) {
		for j, i := range keepIdx {
			nc[j] = coords[i]
		}
		emit(nc)
	})
	if err != nil {
		return nil, err
	}
	recordOp(o.Cells(), out.Cells())
	return out, nil
}

// groupFold folds every cell of o into out, in the store's ForEach order:
// fanout maps a cell's coordinates to zero or more destination
// coordinates, and each destination accumulates the cell's slots with the
// measures' merge functions. A canceled ctx aborts between cell segments
// with budget.ErrCanceled, and the caller returns no object; the governor
// on ctx is charged for the output cells — the row/group quota of the
// resource budget.
func (o *StatObject) groupFold(ctx context.Context, out *StatObject, fanout func(coords []int, emit func(dst []int))) error {
	tick := budget.NewTicker(ctx, 0)
	var src []float64
	emit := func(dst []int) { out.mergeSlots(dst, src) }
	var err error
	o.store.ForEach(func(coords []int, slots []float64) bool {
		if err = tick.Tick(); err != nil {
			return false
		}
		src = slots
		fanout(coords, emit)
		return true
	})
	if err != nil {
		return err
	}
	return budget.From(ctx).AddCells(int64(out.Cells()))
}

// mergeSlots folds a full slot vector into the cell at coords.
func (o *StatObject) mergeSlots(coords []int, slots []float64) {
	o.store.Merge(coords, slots, o.identitySlots, func(dst, src []float64) {
		for i, m := range o.measures {
			m.merge(dst[o.offsets[i]:o.offsets[i]+m.slots()], src[o.offsets[i]:o.offsets[i]+m.slots()])
		}
	})
}

// SAggregate rolls one dimension up its classification hierarchy to the
// named level — the S-aggregation of [MRS92], OLAP's "roll up" /
// "consolidation". The result's dimension has the target level as its new
// leaf. Both halves of the [LS97] summarizability conditions are enforced:
// the traversed classification edges must be strict and complete, and each
// measure must be additive along the dimension.
func (o *StatObject) SAggregate(dim, toLevel string) (*StatObject, error) {
	return o.sAggregate(context.Background(), dim, toLevel, true)
}

// SAggregateCtx is SAggregate with a context — the cancellable,
// budget-governed entry point (see SProjectCtx for the cancellation and
// quota semantics).
func (o *StatObject) SAggregateCtx(ctx context.Context, dim, toLevel string) (*StatObject, error) {
	return o.sAggregate(ctx, dim, toLevel, true)
}

// SAggregateUnchecked performs the same roll-up without summarizability
// checks. With a non-strict hierarchy, a child's contribution is folded
// into every parent — the double-counting hazard of Section 3.3.2; the
// caller takes responsibility (e.g. after verifying the query semantics
// really want overlapping groups).
func (o *StatObject) SAggregateUnchecked(dim, toLevel string) (*StatObject, error) {
	return o.sAggregate(context.Background(), dim, toLevel, false)
}

func (o *StatObject) sAggregate(ctx context.Context, dim, toLevel string, check bool) (*StatObject, error) {
	d, err := o.sch.Dimension(dim)
	if err != nil {
		return nil, err
	}
	li, err := d.Class.LevelIndex(toLevel)
	if err != nil {
		return nil, err
	}
	if li == 0 {
		return o, nil
	}
	if check {
		if err := d.Class.CheckSummarizable(0, li); err != nil {
			recordRejection()
			return nil, fmt.Errorf("%w: %v", ErrNotSummarizable, err)
		}
		for _, m := range o.measures {
			if err := m.checkAdditive(dim, d.Temporal); err != nil {
				recordRejection()
				return nil, err
			}
		}
	}
	truncated, err := d.Class.Truncate(li)
	if err != nil {
		return nil, err
	}
	nsch, err := o.replaceDim(dim, truncated)
	if err != nil {
		return nil, err
	}
	out := o.derive(nsch, fmt.Sprintf("s-aggregate:%s:%s", dim, toLevel))
	di, _ := o.sch.DimIndex(dim)
	// Precompute leaf ordinal -> ancestor ordinals at the target level.
	leafVals := d.Class.LeafLevel().Values
	up := make([][]int, len(leafVals))
	for ord, v := range leafVals {
		ancs, err := d.Class.Ancestors(0, v, li)
		if err != nil {
			return nil, err
		}
		for _, a := range ancs {
			aOrd, err := d.Class.ValueOrdinal(li, a)
			if err != nil {
				return nil, err
			}
			up[ord] = append(up[ord], aOrd)
		}
	}
	nc := make([]int, len(o.sch.Dimensions()))
	err = o.groupFold(ctx, out, func(coords []int, emit func([]int)) {
		copy(nc, coords)
		for _, aOrd := range up[coords[di]] {
			nc[di] = aOrd
			emit(nc)
		}
	})
	if err != nil {
		return nil, err
	}
	recordOp(o.Cells(), out.Cells())
	return out, nil
}

// RollUp is the OLAP name for SAggregate (Figure 14).
func (o *StatObject) RollUp(dim, toLevel string) (*StatObject, error) {
	return o.SAggregate(dim, toLevel)
}

// Slice fixes one dimension at a single leaf value and removes the
// dimension — the "cut through one of the dimensions for a fixed value"
// reading of OLAP's slice (Section 4.4), e.g. race = "black".
func (o *StatObject) Slice(dim string, value Value) (*StatObject, error) {
	sel, err := o.SSelect(dim, value)
	if err != nil {
		return nil, err
	}
	// A single value remains; projecting it out sums exactly one cell per
	// remaining coordinate, so additivity is irrelevant — bypass the check
	// by projecting on the restricted object directly.
	return sel.projectSingleton(dim)
}

// projectSingleton removes a dimension known to have exactly one value.
func (o *StatObject) projectSingleton(dim string) (*StatObject, error) {
	d, err := o.sch.Dimension(dim)
	if err != nil {
		return nil, err
	}
	if d.Cardinality() != 1 {
		return nil, fmt.Errorf("core: dimension %q has %d values, want 1", dim, d.Cardinality())
	}
	var keepDims []schema.Dimension
	var keepIdx []int
	for i, dd := range o.sch.Dimensions() {
		if dd.Name != dim {
			keepDims = append(keepDims, dd)
			keepIdx = append(keepIdx, i)
		}
	}
	if len(keepDims) == 0 {
		return nil, errors.New("core: cannot slice away the last dimension")
	}
	nsch, err := schema.New(o.sch.Name, keepDims...)
	if err != nil {
		return nil, err
	}
	out := o.derive(nsch, "slice:"+dim)
	nc := make([]int, len(keepIdx))
	o.store.ForEach(func(coords []int, slots []float64) bool {
		for j, i := range keepIdx {
			nc[j] = coords[i]
		}
		out.store.Put(nc, append([]float64(nil), slots...))
		return true
	})
	recordOp(o.Cells(), out.Cells())
	return out, nil
}

// DrillDown returns the finer-grained object this one was derived from by
// an S-aggregation or S-projection — OLAP's drill down, the SDB
// "disaggregation" [S82]. Detail can only be recovered when provenance was
// recorded; macro-data with no finer origin returns ErrNoFinerData.
func (o *StatObject) DrillDown() (*StatObject, error) {
	if o.origin == nil {
		return nil, ErrNoFinerData
	}
	return o.origin, nil
}

// DisaggregateByProxy estimates finer-grained values from coarse ones
// using a proxy variable — the statisticians' "disaggregation by proxy" of
// Section 5.3 (county population estimated from county area). finer must
// be a classification whose level 1 equals the dimension's current leaf
// level; proxy gives the weight of each new leaf value. Each cell's value
// is apportioned to the children of its dimension value in proportion to
// their proxy weights. Only Sum measures can be disaggregated this way.
func (o *StatObject) DisaggregateByProxy(dim string, finer *hierarchy.Classification, proxy map[Value]float64) (*StatObject, error) {
	d, err := o.sch.Dimension(dim)
	if err != nil {
		return nil, err
	}
	for _, m := range o.measures {
		if m.Func != Sum {
			return nil, fmt.Errorf("core: DisaggregateByProxy requires sum measures; %q is %v", m.Name, m.Func)
		}
	}
	if finer.NumLevels() < 2 {
		return nil, errors.New("core: finer classification must have at least two levels")
	}
	if finer.Level(1).Name != d.Class.LeafLevel().Name {
		return nil, fmt.Errorf("core: finer classification level 1 is %q, want current leaf level %q",
			finer.Level(1).Name, d.Class.LeafLevel().Name)
	}
	// A child under two parents would get a share from each, and summing
	// them double counts the way a non-strict roll-up does (Section 3.3.2).
	if !finer.IsStrictEdge(0) {
		return nil, fmt.Errorf("core: disaggregating %q: %w", dim, hierarchy.ErrNonStrict)
	}
	for _, v := range d.Class.LeafLevel().Values {
		if !finer.HasValue(1, v) {
			return nil, fmt.Errorf("%w: current value %q missing from finer classification", hierarchy.ErrUnknownValue, v)
		}
	}
	nsch, err := o.replaceDim(dim, finer)
	if err != nil {
		return nil, err
	}
	out := o.derive(nsch, "disaggregate-by-proxy:"+dim)
	di, _ := o.sch.DimIndex(dim)
	// For each current value: children and normalized proxy weights.
	type share struct {
		ord int
		w   float64
	}
	shares := map[int][]share{}
	for ord, v := range d.Class.LeafLevel().Values {
		kids, err := finer.Children(1, v)
		if err != nil {
			return nil, err
		}
		if len(kids) == 0 {
			return nil, fmt.Errorf("core: value %q has no children in finer classification", v)
		}
		total := 0.0
		for _, k := range kids {
			w, ok := proxy[k]
			if !ok {
				return nil, fmt.Errorf("core: proxy weight missing for %q", k)
			}
			if w < 0 || math.IsNaN(w) {
				return nil, fmt.Errorf("core: invalid proxy weight %v for %q", w, k)
			}
			total += w
		}
		if total == 0 {
			return nil, fmt.Errorf("core: proxy weights for children of %q sum to zero", v)
		}
		for _, k := range kids {
			kOrd, err := finer.ValueOrdinal(0, k)
			if err != nil {
				return nil, err
			}
			shares[ord] = append(shares[ord], share{kOrd, proxy[k] / total})
		}
	}
	nc := make([]int, len(o.sch.Dimensions()))
	scaled := make([]float64, o.nslots)
	o.store.ForEach(func(coords []int, slots []float64) bool {
		copy(nc, coords)
		for _, sh := range shares[coords[di]] {
			nc[di] = sh.ord
			for j, s := range slots {
				scaled[j] = s * sh.w
			}
			out.store.Put(nc, append([]float64(nil), scaled...))
		}
		return true
	})
	recordOp(o.Cells(), out.Cells())
	return out, nil
}

// SUnion combines two statistical objects with the same dimensions and
// measures whose category value sets may partially overlap — the S-union
// of [MRS92] (merging state-by-state datasets into a national one).
// Overlapping cells must agree to within a small tolerance; a disagreement
// returns ErrUnionConflict, since silently preferring one source would
// corrupt the summary.
func (o *StatObject) SUnion(other *StatObject) (*StatObject, error) {
	if len(o.measures) != len(other.measures) {
		return nil, fmt.Errorf("core: measure count mismatch %d vs %d", len(o.measures), len(other.measures))
	}
	for i := range o.measures {
		if o.measures[i] != other.measures[i] {
			return nil, fmt.Errorf("core: measure %d differs: %+v vs %+v", i, o.measures[i], other.measures[i])
		}
	}
	da, db := o.sch.Dimensions(), other.sch.Dimensions()
	if len(da) != len(db) {
		return nil, fmt.Errorf("core: dimension count mismatch %d vs %d", len(da), len(db))
	}
	var merged []schema.Dimension
	for i := range da {
		if da[i].Name != db[i].Name {
			return nil, fmt.Errorf("core: dimension %d differs: %q vs %q", i, da[i].Name, db[i].Name)
		}
		mc, err := hierarchy.Merge(da[i].Class, db[i].Class)
		if err != nil {
			return nil, err
		}
		merged = append(merged, schema.Dimension{Name: da[i].Name, Class: mc, Temporal: da[i].Temporal || db[i].Temporal})
	}
	nsch, err := schema.New(o.sch.Name, merged...)
	if err != nil {
		return nil, err
	}
	out := o.derive(nsch, "s-union")
	put := func(src *StatObject, checkConflict bool) error {
		var conflict error
		remap := make([][]int, len(merged)) // per dim: src ordinal -> merged ordinal
		for i := range merged {
			srcVals := src.sch.Dimensions()[i].Class.LeafLevel().Values
			remap[i] = make([]int, len(srcVals))
			for so, v := range srcVals {
				mo, err := merged[i].Class.ValueOrdinal(0, v)
				if err != nil {
					return err
				}
				remap[i][so] = mo
			}
		}
		nc := make([]int, len(merged))
		cur := make([]float64, out.nslots)
		src.store.ForEach(func(coords []int, slots []float64) bool {
			for i, c := range coords {
				nc[i] = remap[i][c]
			}
			if checkConflict && out.store.Get(nc, cur) {
				for j := range cur {
					if math.Abs(cur[j]-slots[j]) > 1e-9*math.Max(1, math.Abs(cur[j])) {
						conflict = fmt.Errorf("%w: at %v measure slots %v vs %v",
							ErrUnionConflict, out.Values(nc), cur, slots)
						return false
					}
				}
				return true // identical overlap: keep once
			}
			out.store.Put(nc, append([]float64(nil), slots...))
			return true
		})
		return conflict
	}
	if err := put(o, false); err != nil {
		return nil, err
	}
	if err := put(other, true); err != nil {
		return nil, err
	}
	recordOp(o.Cells()+other.Cells(), out.Cells())
	return out, nil
}
