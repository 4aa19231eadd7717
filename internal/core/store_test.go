package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapStoreBasics(t *testing.T) {
	s := NewMapStore([]int{2, 3}, 2)
	if s.Cells() != 0 {
		t.Errorf("fresh Cells = %d", s.Cells())
	}
	dst := make([]float64, 2)
	if s.Get([]int{0, 0}, dst) {
		t.Error("empty cell reported present")
	}
	s.Put([]int{1, 2}, []float64{5, 7})
	if !s.Get([]int{1, 2}, dst) || dst[0] != 5 || dst[1] != 7 {
		t.Errorf("Get = %v", dst)
	}
	if s.Cells() != 1 {
		t.Errorf("Cells = %d", s.Cells())
	}
	// Put copies its argument.
	in := []float64{1, 2}
	s.Put([]int{0, 1}, in)
	in[0] = 99
	s.Get([]int{0, 1}, dst)
	if dst[0] != 1 {
		t.Error("Put aliased caller slice")
	}
}

func TestMapStorePanics(t *testing.T) {
	s := NewMapStore([]int{2, 3}, 1)
	for _, coords := range [][]int{{0}, {0, 3}, {-1, 0}, {2, 0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("coords %v did not panic", coords)
				}
			}()
			s.Put(coords, []float64{0})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong slot count did not panic")
			}
		}()
		s.Put([]int{0, 0}, []float64{1, 2})
	}()
}

func TestMapStoreMerge(t *testing.T) {
	s := NewMapStore([]int{2}, 1)
	identity := func(dst []float64) { dst[0] = 0 }
	merge := func(dst, src []float64) { dst[0] += src[0] }
	s.Merge([]int{0}, []float64{3}, identity, merge)
	s.Merge([]int{0}, []float64{4}, identity, merge)
	dst := make([]float64, 1)
	if !s.Get([]int{0}, dst) || dst[0] != 7 {
		t.Errorf("merged value = %v", dst)
	}
}

func TestMapStoreForEachOrder(t *testing.T) {
	s := NewMapStore([]int{3, 3}, 1)
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(9) {
		s.Put([]int{i / 3, i % 3}, []float64{float64(i)})
	}
	prev := -1
	s.ForEach(func(coords []int, slots []float64) bool {
		lin := coords[0]*3 + coords[1]
		if lin <= prev {
			t.Fatalf("out of order: %d after %d", lin, prev)
		}
		if int(slots[0]) != lin {
			t.Fatalf("value mismatch at %v", coords)
		}
		prev = lin
		return true
	})
}

func TestMapStoreOverwriteAndZeroCell(t *testing.T) {
	s := NewMapStore([]int{2, 3}, 2)
	dst := make([]float64, 2)
	s.Put([]int{1, 2}, []float64{5, 7})
	// Overwrite does not double count.
	s.Put([]int{1, 2}, []float64{1, 1})
	if s.Cells() != 1 {
		t.Errorf("Cells after overwrite = %d", s.Cells())
	}
	if !s.Get([]int{1, 2}, dst) || dst[0] != 1 || dst[1] != 1 {
		t.Errorf("Get after overwrite = %v", dst)
	}
	// A zero-valued cell is distinct from an absent one.
	s.Put([]int{0, 0}, []float64{0, 0})
	if !s.Get([]int{0, 0}, dst) {
		t.Error("zero cell should be present")
	}
	if s.Cells() != 2 {
		t.Errorf("Cells with zero cell = %d", s.Cells())
	}
}

func TestMapStoreOneDimPanics(t *testing.T) {
	s := NewMapStore([]int{2}, 1)
	for _, coords := range [][]int{{-1}, {2}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("coords %v did not panic", coords)
				}
			}()
			s.Put(coords, []float64{1})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("slot mismatch did not panic")
			}
		}()
		s.Put([]int{0}, []float64{1, 2})
	}()
}

func TestMapStoreMergeAndForEach(t *testing.T) {
	s := NewMapStore([]int{2, 2}, 1)
	id := func(dst []float64) { dst[0] = 0 }
	add := func(dst, src []float64) { dst[0] += src[0] }
	s.Merge([]int{0, 1}, []float64{3}, id, add)
	s.Merge([]int{0, 1}, []float64{4}, id, add)
	s.Merge([]int{1, 0}, []float64{9}, id, add)
	got := map[int]float64{}
	s.ForEach(func(coords []int, slots []float64) bool {
		got[coords[0]*2+coords[1]] = slots[0]
		return true
	})
	if got[1] != 7 || got[2] != 9 || len(got) != 2 {
		t.Errorf("ForEach results = %v", got)
	}
	// Early stop.
	n := 0
	s.ForEach(func([]int, []float64) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

// Property: round-tripping any coordinate through key/unkey is identity.
func TestQuickMapStoreKeyRoundTrip(t *testing.T) {
	f := func(rawShape [3]uint8, rawCoords [3]uint16) bool {
		shape := make([]int, 3)
		coords := make([]int, 3)
		for i := range shape {
			shape[i] = int(rawShape[i]%20) + 1
			coords[i] = int(rawCoords[i]) % shape[i]
		}
		s := NewMapStore(shape, 1)
		s.Put(coords, []float64{42})
		found := false
		s.ForEach(func(c []int, _ []float64) bool {
			found = c[0] == coords[0] && c[1] == coords[1] && c[2] == coords[2]
			return false
		})
		return found
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
