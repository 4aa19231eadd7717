package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// MapStore holds a statistical object's cells, the one physical
// organization the conceptual operators run over: the linearized cell
// positions of Section 6.2 kept in key order. Coordinates are leaf-level
// value ordinals, one per dimension, in schema order; a cell's key is
// their row-major linearization. Slots are the flattened measure
// accumulators (see Measure.slots).
//
// The cells live in a run — keys ascending, slots floats per key beside
// them, the layout of a stored cube view — plus an unsorted tail that
// takes the keys written since the run was last settled. A write to a
// present key updates it in place; a new key is appended to the tail.
// ForEach first folds the tail into the run with one sort of the tail and
// one linear merge, then walks the run, so an object built once sorts
// once and every later pass over it is a straight scan. A bulk load
// (StatObject.ObserveRows) bypasses the tail: it radix-sorts its batch
// and writes an empty store's run directly, or merges its new keys into
// a settled run in one pass.
//
// Reads (Get, ForEach, Cells) may run concurrently with each other, so
// one built object can serve many readers; writes must not run
// concurrently with anything.
type MapStore struct {
	shape   []int
	strides []uint64
	slots   int

	// mu guards the tail and the fold that empties it into the run.
	mu   sync.Mutex
	keys []uint64  // the run's keys, ascending
	vals []float64 // slots floats per run key
	// The tail: keys in write order, their slots, and key → tail position,
	// the index existing only while the tail is non-empty.
	tailKeys []uint64
	tailVals []float64
	tailIdx  map[uint64]int32
}

// keysFit reports whether every linearized key over shape fits in 64 bits:
// the largest, every coordinate at its maximum, does exactly when the cross
// product is at most 2^64 cells.
func keysFit(shape []int) bool {
	var k uint64
	for _, n := range shape {
		if n <= 0 {
			return true // an empty dimension holds no cell
		}
		hi, lo := bits.Mul64(k, uint64(n))
		lo, carry := bits.Add64(lo, uint64(n-1), 0)
		if hi != 0 || carry != 0 {
			return false
		}
		k = lo
	}
	return true
}

// NewMapStore creates an empty MapStore for the given shape and slot count.
// The shape's cross product must pass keysFit, which New checks.
func NewMapStore(shape []int, slots int) *MapStore {
	s := &MapStore{
		shape:   append([]int(nil), shape...),
		strides: make([]uint64, len(shape)),
		slots:   slots,
	}
	// Row-major strides: the linearization of Section 6.2, whose order is
	// the run's order.
	stride := uint64(1)
	for i := len(shape) - 1; i >= 0; i-- {
		s.strides[i] = stride
		stride *= uint64(shape[i])
	}
	return s
}

// checkedKey linearizes coords, refusing a wrong coordinate count or an
// ordinal outside its dimension with ErrCoordRange.
func (s *MapStore) checkedKey(coords []int) (uint64, error) {
	if len(coords) != len(s.shape) {
		return 0, fmt.Errorf("%w: %d coordinates for %d dimensions", ErrCoordRange, len(coords), len(s.shape))
	}
	var k uint64
	for i, c := range coords {
		if c < 0 || c >= s.shape[i] {
			return 0, fmt.Errorf("%w: coordinate %d outside [0,%d) in dimension %d", ErrCoordRange, c, s.shape[i], i)
		}
		k += uint64(c) * s.strides[i]
	}
	return k, nil
}

// key is checkedKey for the operators' own coordinates, which are in
// range by construction: a bad one is a bug, and panics.
func (s *MapStore) key(coords []int) uint64 {
	k, err := s.checkedKey(coords)
	if err != nil {
		panic(err)
	}
	return k
}

func (s *MapStore) unkey(k uint64, coords []int) {
	for i := range s.shape {
		coords[i] = int(k / s.strides[i] % uint64(s.shape[i]))
	}
}

// find returns the stored slots of key k, in place: from the run by binary
// search, else from the tail by its index.
func (s *MapStore) find(k uint64) ([]float64, bool) {
	if i, ok := slices.BinarySearch(s.keys, k); ok {
		return s.vals[i*s.slots : (i+1)*s.slots : (i+1)*s.slots], true
	}
	if j, ok := s.tailIdx[k]; ok {
		lo := int(j) * s.slots
		return s.tailVals[lo : lo+s.slots : lo+s.slots], true
	}
	return nil, false
}

// add appends key k, which the store does not hold, to the tail and
// returns its zeroed slots.
func (s *MapStore) add(k uint64) []float64 {
	if len(s.tailKeys) == math.MaxInt32 {
		s.settle() // keep every tail position an int32
	}
	if s.tailIdx == nil {
		s.tailIdx = map[uint64]int32{}
	}
	s.tailIdx[k] = int32(len(s.tailKeys))
	s.tailKeys = append(s.tailKeys, k)
	s.tailVals = append(s.tailVals, make([]float64, s.slots)...)
	n := len(s.tailVals)
	return s.tailVals[n-s.slots : n : n]
}

// settle folds the tail into the run: the tail's positions sorted by key,
// then mergeTail. It is a no-op on an empty tail, so once a built object
// is settled its readers only take and release the lock.
func (s *MapStore) settle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tailKeys) == 0 {
		return
	}
	order := make([]int32, len(s.tailKeys))
	for j := range order {
		order[j] = int32(j)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(s.tailKeys[a], s.tailKeys[b]) })
	s.mergeTail(order)
}

// mergeTail folds the tail, none of whose keys the run holds, into the
// run with one backward merge into the grown run, the way cube.run
// merges a batch's new keys. order lists the tail's positions in key
// order; nil means the tail was written in key order, as ObserveRows
// writes it. The tail is left empty.
func (s *MapStore) mergeTail(order []int32) {
	sl, n := s.slots, len(s.tailKeys)
	i := len(s.keys) - 1
	s.keys = slices.Grow(s.keys, n)[:len(s.keys)+n]
	s.vals = slices.Grow(s.vals, n*sl)[:len(s.vals)+n*sl]
	for w, j := len(s.keys)-1, n-1; j >= 0; w-- {
		t := j
		if order != nil {
			t = int(order[j])
		}
		if i >= 0 && s.keys[i] > s.tailKeys[t] {
			s.keys[w] = s.keys[i]
			copy(s.vals[w*sl:(w+1)*sl], s.vals[i*sl:(i+1)*sl])
			i--
		} else {
			s.keys[w] = s.tailKeys[t]
			copy(s.vals[w*sl:(w+1)*sl], s.tailVals[t*sl:(t+1)*sl])
			j--
		}
	}
	s.tailKeys, s.tailVals, s.tailIdx = nil, nil, nil
}

// Get copies the cell's slots into dst and reports whether the cell is
// non-empty. dst must hold the store's slot count.
func (s *MapStore) Get(coords []int, dst []float64) bool {
	k := s.key(coords)
	s.mu.Lock()
	defer s.mu.Unlock()
	acc, ok := s.find(k)
	copy(dst, acc)
	return ok
}

// Put replaces the cell's slots with a copy of slots.
func (s *MapStore) Put(coords []int, slots []float64) {
	if len(slots) != s.slots {
		panic(fmt.Sprintf("core: %d slots, store has %d", len(slots), s.slots))
	}
	k := s.key(coords)
	acc, ok := s.find(k)
	if !ok {
		acc = s.add(k)
	}
	copy(acc, slots)
}

// Merge folds slots into the cell with the supplied merge function,
// initializing an empty cell with identity first.
func (s *MapStore) Merge(coords []int, slots []float64, identity func([]float64), merge func(dst, src []float64)) {
	k := s.key(coords)
	acc, ok := s.find(k)
	if !ok {
		acc = s.add(k)
		identity(acc)
	}
	merge(acc, slots)
}

// ForEach visits every non-empty cell in ascending linearized order, for
// determinism; the callback must not retain coords or slots. Iteration
// stops if the callback returns false.
func (s *MapStore) ForEach(fn func(coords []int, slots []float64) bool) {
	s.settle()
	coords := make([]int, len(s.shape))
	sl := s.slots
	for i, k := range s.keys {
		s.unkey(k, coords)
		if !fn(coords, s.vals[i*sl:(i+1)*sl:(i+1)*sl]) {
			return
		}
	}
}

// Cells returns the number of non-empty cells.
func (s *MapStore) Cells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys) + len(s.tailKeys)
}
