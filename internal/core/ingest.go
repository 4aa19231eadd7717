package core

import (
	"fmt"

	"statcube/internal/keyspace"
)

// ObserveRows folds a batch of raw observations into the object, the
// periodic bulk load of the paper's Section 3: row r sits at the ordinal
// coordinates coords[r], and obs[name][r] is its value for each named
// measure. The result is bit for bit that of calling ObserveAt on each
// row in order — a Count measure counts every row, a measure not named is
// left untouched — done as one sort and one fold, the way [GB+96]
// computes a group-by: each row's cell key is linearized once, the
// (key, row) pairs are radix-sorted, and each run of equal keys is folded
// into its cell's slots in row order. An empty store receives the sorted
// run directly; a non-empty one is settled first, folds the keys it holds
// in place and merges the new ones in one pass.
//
// The batch is checked before any row is folded: an unknown measure
// (ErrUnknownMeasure), a column whose length is not the row count, or a
// row with bad coordinates (ErrCoordRange) refuses it and leaves the
// object unchanged. ObserveRows does not retain coords or obs.
func (o *StatObject) ObserveRows(coords [][]int, obs map[string][]float64) error {
	cols := make([][]float64, len(o.measures)) // per measure, nil when not named
	for name, col := range obs {
		i, ok := o.byName[name]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownMeasure, name)
		}
		if len(col) != len(coords) {
			return fmt.Errorf("core: measure %q has %d values for %d rows", name, len(col), len(coords))
		}
		cols[i] = col
	}
	if len(coords) == 0 {
		return nil
	}
	s := o.store
	src := make([]keyspace.Entry[int], len(coords)) // (key, row)
	for r, c := range coords {
		k, err := s.checkedKey(c)
		if err != nil {
			return fmt.Errorf("row %d: %w", r, err)
		}
		src[r] = keyspace.Entry[int]{Key: k, Val: r}
	}
	sorted := keyspace.Sort(src, make([]keyspace.Entry[int], len(src)), keyspace.Max(s.dims, s.shape))
	distinct := 1
	for p := 1; p < len(sorted); p++ {
		if sorted[p].Key != sorted[p-1].Key {
			distinct++
		}
	}

	s.settle()
	sl := s.slots
	// The batch's keys the run lacks, ascending, with their folded slots:
	// the run itself when the store is empty, else a tail to merge in.
	keys := make([]uint64, 0, distinct)
	vals := make([]float64, 0, distinct*sl)
	lo := 0 // run keys below lo are below every key still to fold
	for p := 0; p < len(sorted); {
		k := sorted[p].Key
		j, found := keyspace.Search(s.keys[lo:], k)
		lo += j
		var acc []float64
		if found {
			acc = s.vals[lo*sl : (lo+1)*sl : (lo+1)*sl]
		} else {
			keys = append(keys, k)
			vals = append(vals, make([]float64, sl)...)
			acc = vals[len(vals)-sl:]
			o.identitySlots(acc)
		}
		for ; p < len(sorted) && sorted[p].Key == k; p++ {
			r := sorted[p].Val
			for i, m := range o.measures {
				if col := cols[i]; col != nil {
					m.observe(acc[o.offsets[i]:o.offsets[i]+m.slots()], col[r])
				} else if m.Func == Count {
					m.observe(acc[o.offsets[i]:o.offsets[i]+m.slots()], 0)
				}
			}
		}
	}
	if len(s.keys) == 0 {
		s.keys, s.vals = keys, vals
		return nil
	}
	if len(keys) > 0 {
		s.mu.Lock()
		s.tailKeys, s.tailVals = keys, vals
		s.mergeTail(nil)
		s.mu.Unlock()
	}
	return nil
}
