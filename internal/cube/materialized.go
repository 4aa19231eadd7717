package cube

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"statcube/internal/budget"
	"statcube/internal/fault"
	"statcube/internal/keyspace"
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
	base, err := in.groupBase(ctx)
	if err != nil {
		return nil, err
	}
	want := make([]bool, 1<<uint(len(in.Card)))
	for _, mask := range masks {
		if mask < 0 || mask >= len(want) {
			return nil, fmt.Errorf("cube: view mask %d out of range", mask)
		}
		want[mask] = true
	}
	v, err := walkRuns(ctx, in, base, Options{}.stage(ctx, "cube.materialize", len(in.Rows)), func(mask int) bool { return want[mask] })
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
	if mask < 0 || mask >= len(m.views.stored) {
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
	rk := keyspace.NewRekeyer(m.views.Card, parent, mask)
	size := int(cost)
	if mk := keyspace.Max(maskDims(mask, len(m.views.Card)), m.views.Card); mk < uint64(size) {
		size = int(mk) + 1
	}
	out := make(map[uint64]float64, size)
	for c := m.views.stored[parent].cursor(); ; {
		keys, sums := c.next()
		if len(keys) == 0 {
			return out, cost, nil
		}
		for i, k := range keys {
			out[rk.Key(k)] += sums[i]
		}
	}
}

// ScanCost returns the cumulative rows scanned by Answer calls.
func (m *MaterializedSet) ScanCost() int64 { return m.scanCost.Load() }

// MaterializedMasks returns the stored view masks, sorted.
func (m *MaterializedSet) MaterializedMasks() []int { return m.views.Masks() }

// StorageEntries returns the total stored entries beyond the base cuboid —
// the "space" of the space/time trade-off.
func (m *MaterializedSet) StorageEntries() int64 {
	return m.Entries() - m.views.size(len(m.views.stored)-1)
}

// AppendRowsCtx folds a batch of new facts into the base cuboid AND every
// materialized view incrementally — the bulk-update discipline of
// Roussopoulos et al.'s Cubetree [RKR97] (Section 6.5): summaries are
// additive, so a delta per view replaces recomputing the views from
// scratch. It returns the number of view entries touched (the update
// cost a full rematerialization is compared against).
//
// m takes new views and its old runs are never written: per view, one
// radix sort of the batch's keys and one forward merge build a new delta
// run, and the packed run is shared (see view.fold). So the write path
// stages each load on a Clone of the published generation, and readers
// of the original never see the batch. All or nothing: every view's new
// runs are built before m takes any, so on any failure m is exactly as
// it was.
//
// Cancellation and budget are checked between views, and the context's
// fault injector fires at the writer.delta hook before each view's fold.
// Views are folded in ascending mask order, so a fault schedule replays
// the same per-view decision sequence on every run.
func (m *MaterializedSet) AppendRowsCtx(ctx context.Context, rows [][]int, vals []float64) (int64, error) {
	stored, touched, err := m.views.fold(ctx, rows, vals)
	if err != nil {
		return 0, err
	}
	m.views.stored = stored
	return touched, nil
}

// fold computes the stored views folding the batch into v gives, sharing
// what it does not change; v is untouched.
func (v *Views) fold(ctx context.Context, rows [][]int, vals []float64) ([]*view, int64, error) {
	card := v.Card
	if err := (&Input{Card: card, Rows: rows, Vals: vals}).Validate(); err != nil {
		return nil, 0, err
	}
	inj := fault.From(ctx)
	gov := budget.From(ctx)
	stored := slices.Clone(v.stored)
	var touched int64
	// The batch's entries for one view and the sort's other buffer;
	// reused view to view.
	batch, scratch := make([]keyspace.Entry[float64], len(rows)), make([]keyspace.Entry[float64], len(rows))
	for mask, view := range v.stored {
		if view == nil {
			continue
		}
		if err := budget.Check(ctx); err != nil {
			return nil, 0, err
		}
		// Delta maintenance produces cells like any build: charge the
		// governor one cell per folded row per view, so a quota bounds
		// write amplification the same way it bounds query output.
		if err := gov.AddCells(int64(len(rows))); err != nil {
			return nil, 0, err
		}
		if err := inj.Hit(fault.PointWriterDelta); err != nil {
			return nil, 0, err
		}
		dims := maskDims(mask, len(card))
		for ri, row := range rows {
			k, _ := keyspace.Key(row, dims, card) // Validate checked the row
			batch[ri] = keyspace.Entry[float64]{Key: k, Val: vals[ri]}
		}
		sorted := keyspace.Sort(batch, scratch, keyspace.Max(dims, card))
		stored[mask] = view.fold(sorted)
		touched += int64(len(rows))
	}
	return stored, touched, nil
}

// Clone returns a copy of the set with zero scan-cost accounting. Stored
// runs are immutable, so the copy shares them: it copies one pointer per
// view and recomputes nothing. A fold into either set (AppendRowsCtx)
// builds new runs and leaves the other's alone.
func (m *MaterializedSet) Clone() *MaterializedSet {
	c := newViews(m.views.Card)
	copy(c.stored, m.views.stored)
	return &MaterializedSet{views: c}
}

// Entries returns the total stored entries across every materialized
// view — the footprint a checkpoint writes and a budget governor charges.
func (m *MaterializedSet) Entries() int64 {
	var t int64
	for mask := range m.views.stored {
		t += m.views.size(mask)
	}
	return t
}

// Card returns the per-dimension cardinalities (a copy).
func (m *MaterializedSet) Card() []int { return append([]int(nil), m.views.Card...) }

// Identical reports exact equality: same materialized masks, same keys,
// bit-identical float values (see Views.Identical).
func (m *MaterializedSet) Identical(o *MaterializedSet) bool { return m.views.Identical(o.views) }
