package keyspace

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// drawKeys draws n keys at most maxKey from a few distinct candidates, so
// most keys repeat: 0 and maxKey always among them, and each candidate's
// byte 1 set to 0x5a when shareDigit is, so every key has the same
// middle digit.
func drawKeys(rng *rand.Rand, n int, maxKey uint64, shareDigit bool) []uint64 {
	cand := []uint64{0, maxKey}
	for len(cand) < 2+n/8 {
		k := rng.Uint64()
		if maxKey < math.MaxUint64 {
			k %= maxKey + 1
		}
		cand = append(cand, k)
	}
	if shareDigit {
		for i, k := range cand {
			cand[i] = k&^0xff00 | 0x5a00
		}
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = cand[rng.Intn(len(cand))]
	}
	return keys
}

// checkSort sorts entries with the given keys and values by Sort and by
// slices.SortStableFunc, and fails unless both give the same entries in
// the same order: ascending keys, equal keys in input order.
func checkSort[V comparable](t *testing.T, name string, keys []uint64, val func(i int) V, maxKey uint64) {
	t.Helper()
	src := make([]Entry[V], len(keys))
	for i, k := range keys {
		src[i] = Entry[V]{Key: k, Val: val(i)}
	}
	want := slices.Clone(src)
	slices.SortStableFunc(want, func(a, b Entry[V]) int { return cmp.Compare(a.Key, b.Key) })
	got := Sort(src, make([]Entry[V], len(src)), maxKey)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Sort differs from the stable comparison sort", name)
	}
}

// TestSortMatchesStableSort: on keys with many duplicates, below maxKeys
// that take every pass count from 0 to 8 and with a middle digit every
// key shares (a pass Sort skips), Sort orders (key, value) and (key,
// position) entries exactly as a stable comparison sort does.
func TestSortMatchesStableSort(t *testing.T) {
	maxKeys := []uint64{0, 255, 256, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1, math.MaxUint64}
	passes := map[int]bool{}
	rng := rand.New(rand.NewSource(1))
	for _, maxKey := range maxKeys {
		for _, n := range []int{0, 1, 2, 100, 5000} {
			for _, share := range []bool{false, true} {
				if share && maxKey < 1<<16-1 {
					continue // byte 1 is not below maxKey's top digit
				}
				keys := drawKeys(rng, n, maxKey, share)
				name := fmt.Sprintf("maxKey %d, %d entries, shared digit %v", maxKey, n, share)
				checkSort(t, name+", float64", keys, func(i int) float64 { return rng.NormFloat64() }, maxKey)
				checkSort(t, name+", int32", keys, func(i int) int32 { return int32(i) }, maxKey)
				passes[(bits.Len64(maxKey)+7)/8] = true
			}
		}
	}
	for p := 0; p <= 8; p++ {
		if !passes[p] {
			t.Errorf("no case sorted with %d passes", p)
		}
	}
}

// TestSearchMatchesBinarySearch: on ascending runs of length 0–3 and
// around every power of two to 1024, Search returns what
// slices.BinarySearch does for probes below, at, between and above every
// key — lengths that end the gallop on every stride and leave the halving
// every remainder.
func TestSearchMatchesBinarySearch(t *testing.T) {
	lengths := []int{0, 1, 2, 3}
	for p := 4; p <= 1024; p *= 2 {
		lengths = append(lengths, p-1, p, p+1)
	}
	for _, n := range lengths {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = 10 * uint64(i+1)
		}
		probes := []uint64{0, 5, math.MaxUint64}
		for _, k := range keys {
			probes = append(probes, k-1, k, k+1, k+5)
		}
		for _, k := range probes {
			gotAt, gotOK := Search(keys, k)
			wantAt, wantOK := slices.BinarySearch(keys, k)
			if gotAt != wantAt || gotOK != wantOK {
				t.Fatalf("%d keys, probe %d: Search = (%d, %v), want (%d, %v)", n, k, gotAt, gotOK, wantAt, wantOK)
			}
		}
	}
}

// BenchmarkSort sorts 100 000 entries over a 360 000-key range with cell
// values (cube's instantiation) and with int32 positions (core's tail).
// Each op copies the unsorted input into place first.
func BenchmarkSort(b *testing.B) {
	const n, span = 100_000, 360_000
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(span))
	}
	b.Run("float64", func(b *testing.B) { benchSort(b, keys, func(i int) float64 { return float64(i) }, span-1) })
	b.Run("int32", func(b *testing.B) { benchSort(b, keys, func(i int) int32 { return int32(i) }, span-1) })
}

func benchSort[V any](b *testing.B, keys []uint64, val func(i int) V, maxKey uint64) {
	in := make([]Entry[V], len(keys))
	for i, k := range keys {
		in[i] = Entry[V]{Key: k, Val: val(i)}
	}
	src, dst := make([]Entry[V], len(in)), make([]Entry[V], len(in))
	b.ResetTimer()
	for range b.N {
		copy(src, in)
		Sort(src, dst, maxKey)
	}
}
