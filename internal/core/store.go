package core

import (
	"fmt"
	"math/bits"
	"sort"
)

// MapStore holds a statistical object's cells, the one physical
// organization the conceptual operators run over: a hash map from
// linearized coordinates to accumulator slots. Coordinates are leaf-level
// value ordinals, one per dimension, in schema order. Slots are the
// flattened measure accumulators (see Measure.slots).
type MapStore struct {
	shape   []int
	strides []uint64
	slots   int
	cells   map[uint64][]float64
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
		cells:   map[uint64][]float64{},
	}
	// Row-major strides; the linearization of Section 6.2, used here only
	// as a map key.
	stride := uint64(1)
	for i := len(shape) - 1; i >= 0; i-- {
		s.strides[i] = stride
		stride *= uint64(shape[i])
	}
	return s
}

func (s *MapStore) key(coords []int) uint64 {
	if len(coords) != len(s.shape) {
		panic(fmt.Sprintf("core: %d coordinates for %d dimensions", len(coords), len(s.shape)))
	}
	var k uint64
	for i, c := range coords {
		if c < 0 || c >= s.shape[i] {
			panic(fmt.Sprintf("core: coordinate %d out of range [0,%d) in dimension %d", c, s.shape[i], i))
		}
		k += uint64(c) * s.strides[i]
	}
	return k
}

func (s *MapStore) unkey(k uint64, coords []int) {
	for i := range s.shape {
		coords[i] = int(k / s.strides[i] % uint64(s.shape[i]))
	}
}

// Get copies the cell's slots into dst and reports whether the cell is
// non-empty. dst must hold the store's slot count.
func (s *MapStore) Get(coords []int, dst []float64) bool {
	acc, ok := s.cells[s.key(coords)]
	if !ok {
		return false
	}
	copy(dst, acc)
	return true
}

// Put replaces the cell's slots with a copy of slots.
func (s *MapStore) Put(coords []int, slots []float64) {
	if len(slots) != s.slots {
		panic(fmt.Sprintf("core: %d slots, store has %d", len(slots), s.slots))
	}
	s.cells[s.key(coords)] = append([]float64(nil), slots...)
}

// Merge folds slots into the cell with the supplied merge function,
// initializing an empty cell with identity first.
func (s *MapStore) Merge(coords []int, slots []float64, identity func([]float64), merge func(dst, src []float64)) {
	k := s.key(coords)
	acc, ok := s.cells[k]
	if !ok {
		acc = make([]float64, s.slots)
		identity(acc)
		s.cells[k] = acc
	}
	merge(acc, slots)
}

// ForEach visits every non-empty cell in ascending linearized order, for
// determinism; the callback must not retain coords or slots. Iteration
// stops if the callback returns false.
func (s *MapStore) ForEach(fn func(coords []int, slots []float64) bool) {
	keys := make([]uint64, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	coords := make([]int, len(s.shape))
	for _, k := range keys {
		s.unkey(k, coords)
		if !fn(coords, s.cells[k]) {
			return
		}
	}
}

// Cells returns the number of non-empty cells.
func (s *MapStore) Cells() int { return len(s.cells) }
