package cube

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"statcube/internal/budget"
	"statcube/internal/fault"
	"statcube/internal/qlog"
)

// MaterializedSet is a set of actually-computed views with the lattice's
// cost model made operational: a group-by query is answered from its
// smallest materialized ancestor, charging the ancestor's entry count as
// the scan cost — exactly the linear cost model [HUR96] analyze. The base
// cuboid is always materialized. Storage is the same Views container a
// full cube uses; an unmaterialized mask is a nil slot.
type MaterializedSet struct {
	views *Views
	// scanCost is atomic so a published, immutable set can serve Answer
	// to any number of concurrent readers (the MVCC read path) — the
	// views themselves are never written after construction.
	scanCost atomic.Int64
}

// MaterializeCtx computes the base cuboid plus the requested view masks
// from the input: the same lattice walk as the smallest-parent ROLAP
// build, over the requested masks only, so coarser requested views are
// served by finer ones. Cancellation is
// checked between the base scan's row segments and between levels, and a
// governor on ctx is charged per materialized view. On any failure the set
// under construction is discarded whole — callers never see (or register)
// a partially-materialized set. An enabled flight recorder logs the
// materialization like the full-cube builders.
func MaterializeCtx(ctx context.Context, in *Input, masks []int) (_ *MaterializedSet, err error) {
	defer recordBuildFlight(ctx, "materialize", qlog.Start(), in, Options{}, nil, &err)
	if err := in.Validate(); err != nil {
		return nil, err
	}
	want := make([]bool, 1<<uint(len(in.Card)))
	for _, mask := range masks {
		if mask < 0 || mask >= len(want) {
			return nil, fmt.Errorf("cube: view mask %d out of range", mask)
		}
		want[mask] = true
	}
	v, err := walkRuns(ctx, in, Options{}.stage(ctx, "cube.materialize", len(in.Rows)), func(mask int) bool { return want[mask] })
	if err != nil {
		return nil, err
	}
	return &MaterializedSet{views: v}, nil
}

// Answer computes the group-by for mask, materialized or not, from the
// smallest materialized ancestor. It returns the result — a fresh map the
// caller owns — and the rows scanned (the ancestor's entry count; zero
// when the view itself is materialized — a stored view answers without
// aggregating).
func (m *MaterializedSet) Answer(mask int) (map[uint64]float64, int64, error) {
	if mask < 0 || mask >= len(m.views.runs) {
		return nil, 0, fmt.Errorf("cube: view mask %d out of range", mask)
	}
	if view := m.views.View(mask); view != nil {
		recordAnswer(true, 0)
		return view, 0, nil
	}
	// The base cuboid is always stored, so an ancestor always exists.
	parent, cost, _ := smallestAncestor(mask, m.views.Masks(), m.views.size)
	m.scanCost.Add(cost)
	recordAnswer(false, cost)
	// Fold the parent's entries, ascending, straight into the caller's map.
	p, childKey := m.views.runs[parent], rekey(m.views.Card, parent, mask)
	size := len(p.keys)
	if mk := maxKey(maskDims(mask, len(m.views.Card)), m.views.Card); mk < uint64(size) {
		size = int(mk) + 1
	}
	out := make(map[uint64]float64, size)
	for i, k := range p.keys {
		out[childKey(k)] += p.sums[i]
	}
	return out, cost, nil
}

// ScanCost returns the cumulative rows scanned by Answer calls.
func (m *MaterializedSet) ScanCost() int64 { return m.scanCost.Load() }

// MaterializedMasks returns the stored view masks, sorted.
func (m *MaterializedSet) MaterializedMasks() []int { return m.views.Masks() }

// StorageEntries returns the total stored entries beyond the base cuboid —
// the "space" of the space/time trade-off.
func (m *MaterializedSet) StorageEntries() int64 {
	return m.Entries() - m.views.size(len(m.views.runs)-1)
}

// AppendRowsCtx folds a batch of new facts into the base cuboid AND every
// materialized view incrementally — the bulk-update discipline of
// Roussopoulos et al.'s Cubetree [RKR97] (Section 6.5): summaries are
// additive, so a delta per view replaces recomputing the views from
// scratch. It returns the number of view entries touched (the update
// cost a full rematerialization is compared against).
//
// Cancellation and budget are checked between views, and the context's fault injector fires at
// the writer.delta hook before each view's fold. Views are folded in
// ascending mask order, so a fault schedule replays the same per-view
// decision sequence on every run. Within a view a row whose key is stored
// is added to its sum in place, in row order; keys the view does not hold
// yet are grouped (see group), each from zero in row order, and merged
// into the run in one pass — bit for bit the sums `view[key] += val` over
// the rows gives, at a cost set by the batch and one copy of the view,
// never a sort of it. On any failure the set is left PARTIALLY updated —
// some views folded, some not — so the caller must discard it whole;
// internal/writer stages the fold on a private clone and publishes only
// complete ones, which is how a partial delta is never reader-visible.
func (m *MaterializedSet) AppendRowsCtx(ctx context.Context, rows [][]int, vals []float64) (int64, error) {
	card := m.views.Card
	if err := (&Input{Card: card, Rows: rows, Vals: vals}).Validate(); err != nil {
		return 0, err
	}
	inj := fault.From(ctx)
	gov := budget.From(ctx)
	var touched int64
	// Keys a view does not hold yet, in row order; reused view to view.
	freshKeys, freshVals := make([]uint64, 0, len(rows)), make([]float64, 0, len(rows))
	for _, mask := range m.MaterializedMasks() {
		if err := budget.Check(ctx); err != nil {
			return touched, err
		}
		// Delta maintenance produces cells like any build: charge the
		// governor one cell per folded row per view, so a quota bounds
		// write amplification the same way it bounds query output.
		if err := gov.AddCells(int64(len(rows))); err != nil {
			return touched, err
		}
		if err := inj.Hit(fault.PointWriterDelta); err != nil {
			return touched, err
		}
		view := m.views.runs[mask]
		dims := maskDims(mask, len(card))
		freshKeys, freshVals = freshKeys[:0], freshVals[:0]
		for ri, row := range rows {
			k := groupKey(row, dims, card)
			if i, ok := slices.BinarySearch(view.keys, k); ok {
				view.sums[i] += vals[ri]
			} else {
				freshKeys, freshVals = append(freshKeys, k), append(freshVals, vals[ri])
			}
		}
		view.merge(group(freshKeys, freshVals, maxKey(dims, card)))
		touched += int64(len(rows))
	}
	return touched, nil
}

// Clone returns a deep copy of the set: fresh view runs, zero scan-cost
// accounting. The write path stages each load on a clone of the
// published generation, so readers of the original never observe a
// half-applied delta — copy-on-load MVCC without persistent structures.
// The copy is two slice copies per view and recomputes nothing: no
// fact-table scan, no aggregation, no hashing.
func (m *MaterializedSet) Clone() *MaterializedSet {
	c := newViews(m.views.Card)
	for mask, view := range m.views.runs {
		if view != nil {
			c.runs[mask] = view.clone()
		}
	}
	return &MaterializedSet{views: c}
}

// Entries returns the total stored entries across every materialized
// view — the footprint a clone copies and a budget governor charges.
func (m *MaterializedSet) Entries() int64 {
	var t int64
	for mask := range m.views.runs {
		t += m.views.size(mask)
	}
	return t
}

// Card returns the per-dimension cardinalities (a copy).
func (m *MaterializedSet) Card() []int { return append([]int(nil), m.views.Card...) }

// Identical reports exact equality: same materialized masks, same keys,
// bit-identical float values (see Views.Identical).
func (m *MaterializedSet) Identical(o *MaterializedSet) bool { return m.views.Identical(o.views) }
