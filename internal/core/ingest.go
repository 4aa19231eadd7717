package core

import (
	"fmt"
	"math"

	"statcube/internal/keyspace"
)

// ObserveRows folds a batch of raw observations into the object, the
// periodic bulk load of the paper's Section 3: row r sits at the ordinal
// coordinates coords[r], and obs[name][r] is its value for each named
// measure. The result is bit for bit that of calling ObserveAt on each
// row in order — a Count measure counts every row, a measure not named is
// left untouched. Each row's cell key is linearized once and the batch's
// keys ranked by keyspace.Group, with no sort when they arrive in key
// order or fill a dense range; then each measure's column is folded in
// row order into one accumulator per distinct key, row r into its cell's
// slots at pos[r]. On an empty store those accumulators, identities to
// start, become the run itself; on a non-empty one, settled first, the
// keys it holds start from their stored slots and the folded cells are
// merged back in one pass, into a run sized exactly when the batch brings
// new keys.
//
// The batch is checked before any row is folded: an unknown measure
// (ErrUnknownMeasure), a column whose length is not the row count, more
// than 2^32−1 rows, or a row with bad coordinates (ErrCoordRange)
// refuses it and leaves the object unchanged. ObserveRows does not
// retain coords or obs.
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
	if uint64(len(coords)) > math.MaxUint32 {
		return fmt.Errorf("core: %d rows in one batch, more than 2^32-1", len(coords))
	}
	s := o.store
	var distinct []uint64
	var pos []uint32
	var err error
	if maxKey := keyspace.Max(s.dims, s.shape); maxKey < 1<<32 {
		distinct, pos, err = rankRows[uint32](s, coords, maxKey)
	} else {
		distinct, pos, err = rankRows[uint64](s, coords, maxKey)
	}
	if err != nil {
		return err
	}

	s.settle()
	sl := s.slots
	acc := make([]float64, len(distinct)*sl) // each distinct key's slots
	var at []int                             // each distinct key's place in a non-empty run
	if len(s.keys) == 0 {
		o.identityCells(acc)
	} else {
		at = s.seed(distinct, acc, o.identitySlots)
	}
	for i, m := range o.measures {
		if col := cols[i]; col != nil || m.Func == Count {
			foldColumn(m, acc, sl, o.offsets[i], pos, col)
		}
	}
	if at == nil {
		s.keys, s.vals = distinct, acc
		return nil
	}
	s.mergeRun(distinct, acc, at)
	return nil
}

// identityCells fills acc, whole cells of o's slots, with the
// accumulator identity: the first cell's slots, then copies of ever
// longer prefixes.
func (o *StatObject) identityCells(acc []float64) {
	if len(acc) == 0 {
		return
	}
	o.identitySlots(acc[:o.nslots])
	for w := o.nslots; w < len(acc); w *= 2 {
		copy(acc[w:], acc[:w])
	}
}

// rankRows keys and checks every row of a batch, K wide, every key at
// most maxKey, learning the keys' shape as it goes, and ranks them (see
// keyspace.Group). A bad row refuses the batch with ErrCoordRange.
func rankRows[K keyspace.Width](s *MapStore, coords [][]int, maxKey uint64) ([]uint64, []uint32, error) {
	keys := make([]K, len(coords))
	for r, c := range coords {
		k, err := s.checkedKey(c)
		if err != nil {
			return nil, nil, fmt.Errorf("row %d: %w", r, err)
		}
		keys[r] = K(k)
	}
	distinct, pos := keyspace.Group(keys, maxKey)
	return distinct, pos, nil
}

// foldColumn folds one measure's column into the accumulators acc, sl
// slots per cell, the measure's at offset off: row r's value into the
// cell at pos[r], in row order. col is nil for a Count measure not named,
// which counts every row all the same.
//
// ObserveAt folds its one row through foldColumn too, which is kept out
// of line so that both run the same machine code: which operand's
// payload the sum of two NaNs keeps is the compiler's choice of operand
// order, and one compiled loop makes that choice once for both, so a
// bulk load's cells are bit for bit those of a loop of ObserveAt calls.
//
//go:noinline
func foldColumn(m Measure, acc []float64, sl, off int, pos []uint32, col []float64) {
	switch {
	case col == nil:
		for _, p := range pos {
			acc[int(p)*sl+off]++
		}
	case m.Func == Sum:
		for r, p := range pos {
			acc[int(p)*sl+off] += col[r]
		}
	default:
		n := m.slots()
		for r, p := range pos {
			at := int(p)*sl + off
			m.observe(acc[at:at+n], col[r])
		}
	}
}
