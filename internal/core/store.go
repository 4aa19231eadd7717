package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"statcube/internal/keyspace"
)

// MapStore holds a statistical object's cells, the one physical
// organization the conceptual operators run over: the linearized cell
// positions of Section 6.2 kept in key order. Coordinates are leaf-level
// value ordinals, one per dimension, in schema order; a cell's key is
// their row-major linearization (keyspace.Key). Slots are the flattened
// measure accumulators (see Measure.slots).
//
// The cells live in a run — keys ascending, slots floats per key beside
// them, the layout of a stored cube view — plus an unsorted tail that
// takes the keys written since the run was last settled. A write to a
// present key updates it in place; a new key is appended to the tail.
// ForEach first folds the tail into the run with one sort of the tail and
// one linear merge, then walks the run, so an object built once sorts
// once and every later pass over it is a straight scan. A bulk load
// (StatObject.ObserveRows) bypasses the tail: it ranks its batch's keys
// (keyspace.Group) and writes an empty store's run directly, or folds
// into a settled run and merges its new keys in one pass.
//
// Reads (Get, ForEach, Cells) may run concurrently with each other, so
// one built object can serve many readers; writes must not run
// concurrently with anything.
type MapStore struct {
	shape []int
	dims  []int // every dimension, in order: the key is over all of them
	dec   keyspace.Decoder
	slots int

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

// NewMapStore creates an empty MapStore for the given shape and slot count.
// The shape's cross product must pass keyspace.Fit, which New checks.
func NewMapStore(shape []int, slots int) *MapStore {
	n := len(shape)
	buf := append(make([]int, 0, 2*n), shape...) // the shape's copy, then dims: one allocation
	for d := range n {
		buf = append(buf, d)
	}
	return &MapStore{shape: buf[:n:n], dims: buf[n:], dec: keyspace.NewDecoder(shape), slots: slots}
}

// checkedKey linearizes coords, refusing a wrong coordinate count or an
// ordinal outside its dimension with ErrCoordRange.
func (s *MapStore) checkedKey(coords []int) (uint64, error) {
	if len(coords) != len(s.shape) {
		return 0, fmt.Errorf("%w: %d coordinates for %d dimensions", ErrCoordRange, len(coords), len(s.shape))
	}
	k, d := keyspace.Key(coords, s.dims, s.shape)
	if d >= 0 {
		return 0, fmt.Errorf("%w: coordinate %d outside [0,%d) in dimension %d", ErrCoordRange, coords[d], s.shape[d], d)
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

// settle folds the tail into the run: its (key, position) pairs sorted
// by key, unless it was written in key order, then mergeTail. It is a
// no-op on an empty tail, so once a built object is settled its readers
// only take and release the lock.
func (s *MapStore) settle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.tailKeys)
	if n == 0 {
		return
	}
	if slices.IsSorted(s.tailKeys) {
		s.mergeTail(nil)
		return
	}
	buf := make([]keyspace.Entry[int32], 2*n) // the pairs and the sort's other buffer
	for j, k := range s.tailKeys {
		buf[j] = keyspace.Entry[int32]{Key: k, Val: int32(j)}
	}
	s.mergeTail(keyspace.Sort(buf[:n], buf[n:], keyspace.Max(s.dims, s.shape)))
}

// mergeTail folds the tail, none of whose keys the run holds, into the
// run with one backward merge into the grown run: each slot from the top
// down takes the larger of the run's and the tail's highest keys left, so
// no entry moves twice. order lists the tail's positions in key order;
// nil means the tail is in key order already. The tail is left empty.
func (s *MapStore) mergeTail(order []keyspace.Entry[int32]) {
	sl, n := s.slots, len(s.tailKeys)
	i := len(s.keys) - 1
	s.keys = slices.Grow(s.keys, n)[:len(s.keys)+n]
	s.vals = slices.Grow(s.vals, n*sl)[:len(s.vals)+n*sl]
	for w, j := len(s.keys)-1, n-1; j >= 0; w-- {
		t := j
		if order != nil {
			t = int(order[j].Val)
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

// seed starts the slots in acc of the ascending keys of a batch, slots
// floats each: from the run's stored slots for a key the run holds, else
// from identity. It returns each key's place in the run: its index, or
// ^ the index it would take when the run lacks it.
func (s *MapStore) seed(keys []uint64, acc []float64, identity func([]float64)) []int {
	sl := s.slots
	at := make([]int, len(keys))
	lo := 0 // run keys below lo are below every key still to seed
	for d, k := range keys {
		j, found := keyspace.Search(s.keys[lo:], k)
		lo += j
		if found {
			for o := range sl { // a loop: most cells hold one slot, too few for copy's call
				acc[d*sl+o] = s.vals[lo*sl+o]
			}
			at[d] = lo
		} else {
			identity(acc[d*sl : (d+1)*sl])
			at[d] = ^lo
		}
	}
	return at
}

// mergeRun writes the seeded and folded slots vals of the ascending keys
// back into the run, at their places at (see seed): in place when the run
// holds every key, else into a new run of exactly the merged size.
func (s *MapStore) mergeRun(keys []uint64, vals []float64, at []int) {
	sl := s.slots
	fresh := 0
	for _, a := range at {
		if a < 0 {
			fresh++
		}
	}
	if fresh == 0 {
		for d, a := range at {
			for o := range sl {
				s.vals[a*sl+o] = vals[d*sl+o]
			}
		}
		return
	}
	n := len(s.keys) + fresh
	outKeys, outVals := make([]uint64, n), make([]float64, n*sl)
	i, w := 0, 0 // the next run entry and the next out slot
	for d, a := range at {
		j := a
		if a < 0 {
			j = ^a
		}
		copy(outKeys[w:], s.keys[i:j]) // the run's entries below keys[d]
		copy(outVals[w*sl:], s.vals[i*sl:j*sl])
		w += j - i
		outKeys[w] = keys[d]
		copy(outVals[w*sl:(w+1)*sl], vals[d*sl:(d+1)*sl])
		w, i = w+1, j
		if a >= 0 {
			i++ // the folded cell replaces the stored one
		}
	}
	copy(outKeys[w:], s.keys[i:])
	copy(outVals[w*sl:], s.vals[i*sl:])
	s.keys, s.vals = outKeys, outVals
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
		s.dec.Decode(k, coords)
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
