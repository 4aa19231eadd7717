package cube

import (
	"math"
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

// accum is a scratch accumulator: group key → running sum, in no order. It
// lives inside one build step, one batch fold or one answer; what is
// stored is always a run. `a[k] += v` on an absent key starts from +0,
// which is the float arithmetic every producer of a view shares.
type accum map[uint64]float64

// run sorts the accumulated keys into a run. This is the package's one
// sort, paid where keys arrive in no order — grouping raw rows, the keys
// a roll-up produces, the new keys of a batch — and sized by what is
// produced, never by a stored view that is only being read or copied.
func (a accum) run() *run {
	r := &run{keys: make([]uint64, 0, len(a)), sums: make([]float64, len(a))}
	for k := range a {
		r.keys = append(r.keys, k)
	}
	slices.Sort(r.keys)
	for i, k := range r.keys {
		r.sums[i] = a[k]
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
