package keyspace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// groupModel is Group's reference: the distinct keys by a comparison
// sort, and each entry's position among them by binary search.
func groupModel(keys []uint64) ([]uint64, []uint32) {
	distinct := slices.Clone(keys)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	pos := make([]uint32, len(keys))
	for i, k := range keys {
		p, _ := slices.BinarySearch(distinct, k)
		pos[i] = uint32(p)
	}
	return distinct, pos
}

// groupBranch names the branch Group takes on keys, by the rules it
// dispatches on: "sorted" for keys already ascending, "dense" for the
// presence-bit rank, "radix" for the radix sort.
func groupBranch(keys []uint64, maxKey uint64) string {
	switch {
	case slices.IsSorted(keys):
		return "sorted"
	case maxKey/DenseSpan < uint64(len(keys)):
		return "dense"
	}
	return "radix"
}

// checkGroup ranks keys, K wide, and fails unless Group gives the model's
// distinct keys, ascending and sized exactly, and positions with
// distinct[pos[i]] == keys[i].
func checkGroup[K Width](t *testing.T, name string, keys []uint64, maxKey uint64) {
	t.Helper()
	in := make([]K, len(keys))
	for i, k := range keys {
		in[i] = K(k)
	}
	wantDistinct, wantPos := groupModel(keys)
	distinct, pos := Group(in, maxKey)
	if !slices.Equal(distinct, wantDistinct) || cap(distinct) != len(distinct) {
		t.Fatalf("%s: %d distinct keys (cap %d), want the model's %d, ascending and sized exactly",
			name, len(distinct), cap(distinct), len(wantDistinct))
	}
	if !slices.Equal(pos, wantPos) {
		t.Fatalf("%s: positions differ from the model's", name)
	}
	for i, p := range pos {
		if distinct[p] != keys[i] {
			t.Fatalf("%s: distinct[pos[%d]] = %d, want %d", name, i, distinct[p], keys[i])
		}
	}
}

// TestGroupMatchesSortModel: on key counts 0, 1 and 2^k±1, maxKeys from
// 0 past 2^32 to 2^64−1 (4-byte keys wherever they fit), drawn at random,
// from a few repeated candidates or sorted, Group ranks the keys exactly
// as a sort does — and every branch is reached.
func TestGroupMatchesSortModel(t *testing.T) {
	counts := []int{0, 1}
	for k := 1; k <= 13; k++ {
		counts = append(counts, 1<<k-1, 1<<k+1)
	}
	maxKeys := []uint64{0, 1, 63, 64, 1000, 1 << 12, 1<<32 - 1, 1 << 32, math.MaxUint64}
	reached := map[string]int{}
	rng := rand.New(rand.NewSource(1))
	for _, maxKey := range maxKeys {
		for _, n := range counts {
			for _, draw := range []string{"random", "repeated", "sorted"} {
				keys := drawKeys(rng, n, maxKey, false)
				switch draw {
				case "random":
					for i := range keys {
						if keys[i] = rng.Uint64(); maxKey < math.MaxUint64 {
							keys[i] %= maxKey + 1
						}
					}
				case "sorted":
					slices.Sort(keys)
				}
				name := fmt.Sprintf("maxKey %d, %d keys, %s", maxKey, n, draw)
				if maxKey < 1<<32 {
					checkGroup[uint32](t, name+", uint32", keys, maxKey)
				}
				checkGroup[uint64](t, name+", uint64", keys, maxKey)
				reached[groupBranch(keys, maxKey)]++
			}
		}
	}
	for _, b := range []string{"sorted", "dense", "radix"} {
		if reached[b] == 0 {
			t.Errorf("no case reached the %s branch (reached: %v)", b, reached)
		}
	}
}

// BenchmarkGroup ranks 100 000 keys shaped like the retail facts' base
// cuboid (Zipf-popular products × 20 stores × 180 days, 360 000 keys,
// 4 bytes each): the dense branch core's bulk load and cube's base pass
// take.
func BenchmarkGroup(b *testing.B) {
	const n, stores, days = 100_000, 20, 180
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 99)
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32((int(zipf.Uint64())*stores+rng.Intn(stores))*days + rng.Intn(days))
	}
	b.ReportAllocs()
	for range b.N {
		_, groupPos = Group(keys, 100*stores*days-1)
	}
}

var groupPos []uint32 // BenchmarkGroup's result, kept so the call stays
