package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"statcube/internal/keyspace"
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

// Property: round-tripping any coordinate through Put and ForEach (the
// key and its decode) is identity.
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

// TestMapStoreKeyRoundTripAcross2To32: key spaces of 2^32−1, 2^32,
// 2^32+1 and exactly 2^64 keys, some through a dimension of cardinality 1,
// round-trip every corner cell through Put and ForEach, on the decode's
// narrow (reciprocal) path and its wide (exact division) one, each named
// by the rule the decoder picks it by.
func TestMapStoreKeyRoundTripAcross2To32(t *testing.T) {
	shapes := [][]int{
		{65535, 65537},                       // 2^32−1 keys, both factors odd
		{1 << 16, 1, 1 << 16},                // 2^32 keys, to 2^32−1: the last narrow space
		{641, 6700417},                       // 2^32+1 keys: the first wide one
		{1 << 16, 1 << 16, 1 << 16, 1 << 16}, // 2^64 keys
		{3, 1, 1 << 20},
		{1, 1},
	}
	var narrow, wide int
	for _, shape := range shapes {
		s := NewMapStore(shape, 1)
		if keyspace.Max(s.dims, shape) < 1<<32 { // the decoder's rule for its reciprocal path
			narrow++
		} else {
			wide++
		}
		var corners [][]int
		for c := 0; c < 1<<len(shape); c++ {
			coords := make([]int, len(shape))
			for d, n := range shape {
				if c&(1<<d) != 0 {
					coords[d] = n - 1
				}
			}
			corners = append(corners, coords)
			s.Put(coords, []float64{float64(c)})
		}
		seen := 0
		s.ForEach(func(coords []int, slots []float64) bool {
			if want := corners[int(slots[0])]; !slices.Equal(coords, want) {
				t.Errorf("shape %v: cell %v comes back at %v", shape, want, coords)
			}
			seen++
			return true
		})
		if seen != s.Cells() {
			t.Errorf("shape %v: ForEach visited %d of %d cells", shape, seen, s.Cells())
		}
	}
	if narrow == 0 || wide == 0 {
		t.Fatalf("%d narrow and %d wide decodes: both paths must be covered", narrow, wide)
	}
}

// Model test: seeded random interleavings of Put, Merge, Get and ForEach
// against a reference map that is sorted on every pass. Writes that land
// in the run, in the tail and on keys not yet stored are all exercised,
// because ForEach settles the tail at random points in the sequence.
func TestMapStoreMatchesSortedModel(t *testing.T) {
	shape := []int{5, 7, 3}
	id := func(dst []float64) { dst[0], dst[1] = 0, math.Inf(1) }
	merge := func(dst, src []float64) { dst[0] += src[0]; dst[1] = math.Min(dst[1], src[1]) }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewMapStore(shape, 2)
		model := map[uint64][]float64{}
		coords := make([]int, len(shape))
		lin := func() uint64 { return uint64((coords[0]*7+coords[1])*3 + coords[2]) }
		for step := 0; step < 400; step++ {
			for i, n := range shape {
				coords[i] = rng.Intn(n)
			}
			src := []float64{rng.NormFloat64(), rng.NormFloat64()}
			switch op := rng.Intn(10); {
			case op < 3:
				s.Put(coords, src)
				model[lin()] = slices.Clone(src)
			case op < 7:
				s.Merge(coords, src, id, merge)
				acc, ok := model[lin()]
				if !ok {
					acc = make([]float64, 2)
					id(acc)
					model[lin()] = acc
				}
				merge(acc, src)
			case op < 9:
				dst := make([]float64, 2)
				ok := s.Get(coords, dst)
				want, wok := model[lin()]
				if ok != wok || (ok && !bitsEqual(dst, want)) {
					t.Fatalf("seed %d step %d: Get%v = %v %v, want %v %v", seed, step, coords, dst, ok, want, wok)
				}
			default:
				checkAgainstModel(t, s, model)
			}
			if s.Cells() != len(model) {
				t.Fatalf("seed %d step %d: Cells = %d, want %d", seed, step, s.Cells(), len(model))
			}
		}
		checkAgainstModel(t, s, model)
	}
}

func checkAgainstModel(t *testing.T, s *MapStore, model map[uint64][]float64) {
	t.Helper()
	keys := make([]uint64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	i := 0
	s.ForEach(func(coords []int, slots []float64) bool {
		if i >= len(keys) {
			t.Fatalf("ForEach visits more than %d cells", len(keys))
		}
		if k := s.key(coords); k != keys[i] || !bitsEqual(slots, model[k]) {
			t.Fatalf("ForEach cell %d = key %d %v, want key %d %v", i, k, slots, keys[i], model[keys[i]])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("ForEach visited %d cells, want %d", i, len(keys))
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// An object built with Merge still holds its cells in the tail; the first
// reads settle it, and they may come from many goroutines at once, as
// statd's handlers read its boot object. Run under -race.
func TestMapStoreConcurrentFirstReads(t *testing.T) {
	build := func() (*StatObject, []int) {
		o := retail(t)
		by := map[string]Value{}
		for _, d := range o.Schema().Dimensions() {
			by[d.Name] = d.Class.LeafLevel().Values[0]
		}
		for _, m := range o.Measures() {
			if err := o.Observe(by, map[string]float64{m.Name: 1}); err != nil {
				t.Fatal(err)
			}
		}
		coords, err := o.Coords(by)
		if err != nil {
			t.Fatal(err)
		}
		return o, coords
	}
	o, coords := build()
	if len(o.store.tailKeys) == 0 {
		t.Fatal("fixture has no unsettled tail")
	}
	// The expected answers come from an identical object read alone.
	twin, _ := build()
	name := o.Measures()[0].Name
	want, err := twin.Total(name)
	if err != nil {
		t.Fatal(err)
	}
	cells := twin.Cells()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			switch g % 4 {
			case 0:
				n := 0
				o.store.ForEach(func([]int, []float64) bool { n++; return true })
				if n != cells {
					errs <- "ForEach count"
				}
			case 1:
				if !o.store.Get(coords, make([]float64, o.nslots)) {
					errs <- "Get missed a stored cell"
				}
			case 2:
				if o.Cells() != cells {
					errs <- "Cells"
				}
			case 3:
				if got, _ := o.Total(name); got != want {
					errs <- "Total"
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
