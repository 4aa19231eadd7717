package cube

import (
	"context"

	"statcube/internal/budget"
	"statcube/internal/keyspace"
	"statcube/internal/qlog"
)

// denseCellBytes is the per-cell footprint of a dense view array: an
// 8-byte float64 value plus its presence bit (stored as a bool).
const denseCellBytes = 9

// EstimateMOLAPBytes returns the working memory a full MOLAP build of the
// given cardinalities needs: every view of the lattice is a dense array of
// ∏_{d∈mask} card[d] cells, and the sum over all 2^n masks telescopes to
// ∏ (card[d]+1) cells, each denseCellBytes wide. Returns -1 on overflow —
// treat as "more than any budget".
func EstimateMOLAPBytes(card []int) int64 {
	total := int64(1)
	for _, c := range card {
		f := int64(c) + 1
		if f <= 0 || total > (1<<62)/f {
			return -1
		}
		total *= f
	}
	if total > (1<<62)/denseCellBytes {
		return -1
	}
	return total * denseCellBytes
}

// BuildMOLAPCtx computes the full cube the multidimensional-array way
// ([ZDN97]'s array-based algorithm, simplified to in-memory arrays): the
// base data is loaded into one dense linearized array; every other view is
// a dense array aggregated from its smallest computed parent using pure
// index arithmetic — no hashing, no key decoding. Each array is then read
// out by a linear scan of its present cells into the same Views form the
// ROLAP builders produce.
//
// The dense base array requires ∏ card cells, so this path — like real
// MOLAP systems — is the right choice when the cube is reasonably dense;
// its advantage over ROLAP hashing is exactly what the Section 6.6 debate
// (and the E9 bench) is about. That same density makes it memory-bound.
//
// Before allocating anything the build reserves the dense-array estimate
// (cells × cell width summed over every view) against the context's
// governor; if the reservation is refused, the build degrades to
// BuildROLAPSmallestParentCtx — views sized by the data, not the cross
// product — and records why: the cube.molap_degraded counter and, when a
// Span is attached, a "degrade:molap→rolap_sp" child carrying the
// refusal. Cancellation is checked between lattice levels and row
// segments; on cancellation the typed budget.ErrCanceled is returned and
// no Views. An enabled flight recorder logs the build — outcome
// "degraded" when the ROLAP downgrade was taken (the inner ROLAP build
// additionally logs its own flight).
func BuildMOLAPCtx(ctx context.Context, in *Input, opt Options) (_ *Views, err error) {
	var degraded bool
	defer recordBuildFlight(ctx, "molap", qlog.Start(), in, opt, &degraded, &err)
	if err := in.Validate(); err != nil {
		return nil, err
	}
	acct := newAccountant(ctx)
	defer acct.close()
	est := EstimateMOLAPBytes(in.Card)
	if est < 0 {
		est = 1 << 62 // overflow: force the reservation to decide
	}
	if err := acct.reserve(est); err != nil {
		// Degradation ladder: dense arrays refused → smallest-parent
		// ROLAP, whose views grow with the data instead of the cross
		// product. The reason is recorded on the span so EXPLAIN
		// ANALYZE shows the downgrade, and in the metrics registry.
		recordDegrade()
		d := opt.Span.Child("degrade:molap→rolap_sp")
		d.SetStr("reason", err.Error())
		d.AddInt("estimated_bytes", est)
		d.End()
		degraded = true
		return BuildROLAPSmallestParentCtx(ctx, in, opt)
	}
	n := len(in.Card)
	// arrays[mask] is the dense array of the view's own key space.
	arrays := make([]*dense, 1<<uint(n))
	st := opt.stage(ctx, "cube.molap", len(in.Rows))
	err = walk(ctx, st, n, everyMask,
		func(mask int) int64 { return int64(len(arrays[mask].vals)) },
		func(mask, parent int) error {
			if parent < 0 {
				arrays[mask] = newDenseView(in.Card, mask)
				return loadDense(ctx, in, arrays[mask])
			}
			arrays[mask] = arrays[parent].rollup(mask)
			return nil
		})
	if err != nil {
		return nil, err
	}
	// Read each array out as its view's run, charged per view against the
	// cell quota (the dense bytes are already reserved).
	out := newViews(in.Card)
	err = st.ForEach(len(arrays), func(mask int) error {
		r := arrays[mask].run()
		if err := acct.gov.AddCells(int64(len(r.keys))); err != nil {
			return err
		}
		out.stored[mask] = packedView(r)
		return nil
	})
	if err != nil {
		recordBuildAbort(err)
		return nil, err
	}
	return out, nil
}

// loadDense folds the rows into the base array in row order.
// Cancellation aborts between row segments; the partially-loaded array is
// discarded by the caller.
func loadDense(ctx context.Context, in *Input, a *dense) error {
	tick := budget.NewTicker(ctx, 0)
	for ri, row := range in.Rows {
		if err := tick.Tick(); err != nil {
			return err
		}
		a.add(row, in.Vals[ri])
	}
	return nil
}

// dense is a view-local dense array: vals indexed by the row-major
// linearization of the view's own dimensions.
type dense struct {
	mask    int
	dims    []int // participating dimensions, ascending
	card    []int // full cardinalities (all dims)
	vals    []float64
	present []bool
}

func newDenseView(card []int, mask int) *dense {
	dims := maskDims(mask, len(card))
	size := keyspace.Max(dims, card) + 1
	return &dense{
		mask: mask, dims: dims, card: append([]int(nil), card...),
		vals: make([]float64, size), present: make([]bool, size),
	}
}

// add folds a full-width coded row into the view.
func (a *dense) add(row []int, v float64) {
	pos, _ := keyspace.Key(row, a.dims, a.card) // Validate checked the row
	a.vals[pos] += v
	a.present[pos] = true
}

// rollup aggregates this array down to the child view (child ⊂ a.mask)
// with index arithmetic: one pass over the parent cells, each mapped to
// its child position by dropping the summed-out dimensions' digits.
func (a *dense) rollup(childMask int) *dense {
	child := newDenseView(a.card, childMask)
	rk := keyspace.NewRekeyer(a.card, a.mask, childMask)
	for p, present := range a.present {
		if present {
			cp := rk.Key(uint64(p))
			child.vals[cp] += a.vals[p]
			child.present[cp] = true
		}
	}
	return child
}

// run reads the present cells out in position order, which is ascending
// key order: a dense position is the ROLAP builders' group key (row-major
// over the view's dims).
func (a *dense) run() *run {
	r := &run{}
	for p, present := range a.present {
		if present {
			r.keys = append(r.keys, uint64(p))
			r.sums = append(r.sums, a.vals[p])
		}
	}
	return r
}

// MolapFeasible reports whether a dense base array of the given
// cardinalities stays within maxCells — the planning check a system makes
// before choosing the MOLAP path.
func MolapFeasible(card []int, maxCells int) bool {
	size := 1
	for _, c := range card {
		size *= c
		if size > maxCells {
			return false
		}
	}
	return true
}
