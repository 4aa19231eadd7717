package core

import (
	"context"

	"statcube/internal/budget"
	"statcube/internal/obs"
	"statcube/internal/parallel"
)

// This file runs the group-by shaped operators (S-projection and
// S-aggregation) through the engine's fan-out layer. The contract matches
// the cube builders': the parallel path produces byte-identical cells to
// the sequential scan, because every destination key is reduced by exactly
// one worker in the store's deterministic ForEach order. Both paths honor
// context cancellation between cell segments, so a canceled query stops a
// group-by mid-scan with the typed budget.ErrCanceled and no partial
// output object.

var (
	// parMinCells is the cell-count threshold below which group-bys stay
	// sequential (tests lower it to force the parallel path).
	parMinCells = parallel.MinWork
	// parWorkers caps the operators' fan-out: 0 means GOMAXPROCS. Tests
	// pin it to exercise multi-worker merges on any machine.
	parWorkers = 0
)

// groupFold folds every cell of o into out. newFanout builds one fanout
// instance per worker (instances may reuse scratch buffers); a fanout maps
// an input cell's coordinates to zero or more destination coordinates, and
// each destination cell accumulates the source slots with the measures'
// merge functions — exactly what the sequential ForEach+mergeSlots loop
// does. A canceled ctx aborts between segments and surfaces as
// budget.ErrCanceled; the governor on ctx is charged for the output cells.
func (o *StatObject) groupFold(ctx context.Context, sp *obs.Span, name string, out *StatObject, newFanout func() func(coords []int, emit func(dst []int))) error {
	n := o.store.Cells()
	st := parallel.Stage{Name: name, Workers: parWorkers, Span: sp, Ctx: ctx}
	w := parallel.Workers(parWorkers, n)
	if n >= parMinCells && w > 1 {
		done, err := o.groupFoldPar(ctx, st, out, n, w, newFanout)
		if err != nil {
			return err
		}
		if done {
			return chargeCells(ctx, out)
		}
	}
	c := st.Begin(false, n, 1)
	defer c.End()
	fanout := newFanout()
	tick := budget.NewTicker(ctx, 0)
	var tickErr error
	o.store.ForEach(func(coords []int, slots []float64) bool {
		if tickErr = tick.Tick(); tickErr != nil {
			return false
		}
		fanout(coords, func(dst []int) { out.mergeSlots(dst, slots) })
		return true
	})
	if tickErr != nil {
		c.SetErr(tickErr)
		return tickErr
	}
	return chargeCells(ctx, out)
}

// chargeCells charges the derived object's cells to the context's
// governor — the row/group quota of the resource budget.
func chargeCells(ctx context.Context, out *StatObject) error {
	return budget.From(ctx).AddCells(int64(out.Cells()))
}

// groupFoldPar is the parallel path: the store is snapshotted into flat
// coordinate/slot arrays (ForEach callbacks must not retain their
// arguments), then a deterministic grouped reduction routes each
// destination key to its owning worker's partial map. Per-key merges
// replay in snapshot order — the same order the sequential loop merges in
// — so inserting the disjoint partials into the output store reproduces
// it bit for bit. It reports whether the parallel path completed; (false,
// nil) means the caller should run the sequential loop, and a non-nil
// error aborts the fold with nothing written to the output store.
func (o *StatObject) groupFoldPar(ctx context.Context, st parallel.Stage, out *StatObject, n, w int, newFanout func() func(coords []int, emit func(dst []int))) (bool, error) {
	nd := len(o.sch.Dimensions())
	coords := make([]int32, 0, n*nd)
	slots := make([]float64, 0, n*o.nslots)
	tick := budget.NewTicker(ctx, 0)
	var tickErr error
	o.store.ForEach(func(c []int, s []float64) bool {
		if tickErr = tick.Tick(); tickErr != nil {
			return false
		}
		for _, x := range c {
			coords = append(coords, int32(x))
		}
		slots = append(slots, s...)
		return true
	})
	if tickErr != nil {
		return false, tickErr
	}
	// Per-chunk fanout instances and coordinate buffers, created lazily by
	// the single goroutine that owns each chunk.
	fanouts := make([]func([]int, func([]int)), w)
	cbufs := make([][]int, w)
	parts := make([]map[uint64][]float64, w)
	for i := range parts {
		parts[i] = map[uint64][]float64{}
	}
	ran, grErr := st.GroupReduce(n, parallel.HashOwner(w),
		func(chunk, i int, emit func(uint64)) {
			if fanouts[chunk] == nil {
				fanouts[chunk] = newFanout()
				cbufs[chunk] = make([]int, nd)
			}
			cb := cbufs[chunk]
			for d := 0; d < nd; d++ {
				cb[d] = int(coords[i*nd+d])
			}
			fanouts[chunk](cb, func(dst []int) { emit(out.store.key(dst)) })
		},
		func(owner int, key uint64, i, _ int) {
			part := parts[owner]
			acc, ok := part[key]
			if !ok {
				acc = make([]float64, out.nslots)
				out.identitySlots(acc)
				part[key] = acc
			}
			src := slots[i*o.nslots : (i+1)*o.nslots]
			for mi, m := range out.measures {
				lo, hi := out.offsets[mi], out.offsets[mi]+m.slots()
				m.merge(acc[lo:hi], src[lo:hi])
			}
		})
	if grErr != nil {
		// Contained worker panic: the partial maps are garbage and the
		// sequential loop would re-panic uncontained — surface the typed
		// error with nothing written to the output store.
		return false, grErr
	}
	if !ran {
		// Either the stage resolved to one worker or the context was
		// canceled mid-reduction; in the latter case the partial maps are
		// garbage, so surface the cancellation rather than falling back.
		if err := budget.Check(ctx); err != nil {
			return false, err
		}
		return false, nil
	}
	// The partials' keys are disjoint and out is still empty, so every key
	// is new: append it to the tail, which out's first read sorts.
	for _, part := range parts {
		for k, acc := range part {
			copy(out.store.add(k), acc)
		}
	}
	return true, nil
}
