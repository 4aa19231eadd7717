package cube

import (
	"math"
	"math/bits"
	"slices"
)

// run is one stored view: its group keys ascending, each key's sum beside
// it. That is the snapshot view section's layout held in memory as it is
// on disk, so encoding is a loop, decoding a fill, cloning two slice
// copies, and rolling a view up visits its cells in one fixed order
// without sorting anything.
type run struct {
	keys []uint64
	sums []float64
}

// denseSpan is the widest key range, in possible keys per entry, that
// group sums into a dense array instead of radix-sorting the entries.
const denseSpan = 4

// group is the package's one grouping kernel and its one sort: it folds
// the entries (keys[i], vals[i]), every key at most maxKey, into a run.
// Each key's sum starts from +0 and adds its values in input order — bit
// for bit what `m[k] += v` over the entries gives — on either branch: a
// key range within denseSpan of the entry count is summed into a dense
// array read out by one sweep of its presence bits; a wider one is
// stable-radix-sorted and its runs of equal keys summed. Scratch is sized
// by maxKey or the entry count, never by ∏ card, which can be 2^64.
func group(keys []uint64, vals []float64, maxKey uint64) *run {
	if maxKey/denseSpan < uint64(len(keys)) {
		return groupDense(keys, vals, maxKey)
	}
	return groupSparse(keys, vals, maxKey)
}

func groupDense(keys []uint64, vals []float64, maxKey uint64) *run {
	acc := make([]float64, maxKey+1)
	seen := make([]uint64, maxKey/64+1)
	for i, k := range keys {
		acc[k] += vals[i]
		seen[k/64] |= 1 << (k % 64)
	}
	distinct := 0
	for _, w := range seen {
		distinct += bits.OnesCount64(w)
	}
	r := &run{keys: make([]uint64, 0, distinct), sums: make([]float64, 0, distinct)}
	for wi, w := range seen {
		for ; w != 0; w &= w - 1 {
			k := uint64(wi)*64 + uint64(bits.TrailingZeros64(w))
			r.keys, r.sums = append(r.keys, k), append(r.sums, acc[k])
		}
	}
	return r
}

// entry is one (key, value) pair moving through groupSparse's passes.
type entry struct {
	key uint64
	val float64
}

// groupSparse radix-sorts the entries one byte digit per pass, least
// significant first, skipping any digit they all share; each pass is
// stable, so equal keys keep their input order for the summing sweep.
func groupSparse(keys []uint64, vals []float64, maxKey uint64) *run {
	src, dst := make([]entry, len(keys)), make([]entry, len(keys))
	var count [8][256]int
	passes := (bits.Len64(maxKey) + 7) / 8
	for i, k := range keys {
		src[i] = entry{k, vals[i]}
		for p := 0; p < passes; p++ {
			count[p][byte(k>>(8*p))]++
		}
	}
	for p := 0; p < passes; p++ {
		c := &count[p]
		if slices.Contains(c[:], len(keys)) {
			continue // one digit value for every entry: the pass would move none
		}
		for b, off := 0, 0; b < len(c); b++ {
			c[b], off = off, off+c[b]
		}
		for _, e := range src {
			d := byte(e.key >> (8 * p))
			dst[c[d]] = e
			c[d]++
		}
		src, dst = dst, src
	}
	w := 0 // src[:w] holds the summed runs so far
	for i := 0; i < len(src); w++ {
		k, sum := src[i].key, 0.0
		for ; i < len(src) && src[i].key == k; i++ {
			sum += src[i].val
		}
		src[w] = entry{k, sum}
	}
	r := &run{keys: make([]uint64, w), sums: make([]float64, w)}
	for i, e := range src[:w] {
		r.keys[i], r.sums[i] = e.key, e.val
	}
	return r
}

func (r *run) clone() *run {
	return &run{keys: slices.Clone(r.keys), sums: slices.Clone(r.sums)}
}

// merge adds the entries of o, whose keys r does not hold, in one backward
// pass over the grown slices.
func (r *run) merge(o *run) {
	i, j := len(r.keys)-1, len(o.keys)-1
	r.keys = append(r.keys, o.keys...)
	r.sums = append(r.sums, o.sums...)
	for w := len(r.keys) - 1; j >= 0; w-- {
		if i >= 0 && r.keys[i] > o.keys[j] {
			r.keys[w], r.sums[w] = r.keys[i], r.sums[i]
			i--
		} else {
			r.keys[w], r.sums[w] = o.keys[j], o.sums[j]
			j--
		}
	}
}

// equal reports whether two runs hold the same keys with sums that same
// accepts pairwise.
func (r *run) equal(o *run, same func(a, b float64) bool) bool {
	if !slices.Equal(r.keys, o.keys) {
		return false
	}
	for i, s := range r.sums {
		if !same(s, o.sums[i]) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// within is Equal's tolerance: 1e-9, relative once |a| exceeds 1.
func within(a, b float64) bool {
	return !(math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)))
}
