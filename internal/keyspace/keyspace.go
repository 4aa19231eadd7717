// Package keyspace is the cell-key format core and cube share — Section
// 6.2's row-major linearization, one uint64 per cell, ascending in cell
// order — and the kernels over those keys: width check, bound, decode,
// roll-up re-keyer, one grouping primitive (Group), one stable radix sort
// and one galloping search.
package keyspace

import (
	"math/bits"
	"slices"
)

// Fit reports whether every key over card fits in 64 bits: the largest,
// every coordinate at its maximum, does exactly when ∏ card ≤ 2^64. A wider
// key space would wrap and give distinct cells the same key.
func Fit(card []int) bool {
	var k uint64
	for _, c := range card {
		if c <= 0 {
			return true // an empty dimension admits no cell
		}
		hi, lo := bits.Mul64(k, uint64(c))
		lo, carry := bits.Add64(lo, uint64(c-1), 0)
		if hi != 0 || carry != 0 {
			return false
		}
		k = lo
	}
	return true
}

// Key linearizes the coordinates row[d], d in dims, row-major: the first
// dim is the most significant. It checks each coordinate as it goes: bad
// is the first dim whose coordinate lies outside [0, card[d]), and -1 when
// none does.
func Key(row, dims, card []int) (k uint64, bad int) {
	for _, d := range dims {
		c := row[d]
		if uint(c) >= uint(card[d]) {
			return 0, d
		}
		k = k*uint64(card[d]) + uint64(c)
	}
	return k, -1
}

// Max is the Key of the largest coordinate of every dim in dims. Within Fit
// it does not wrap, even where the key count, ∏ card, is 2^64.
func Max(dims, card []int) uint64 {
	var k uint64
	for _, d := range dims {
		k = k*uint64(card[d]) + uint64(card[d]-1)
	}
	return k
}

// divisor is the divide step of Decode and Rekeyer.Key, by a radix ≥ 2.
// When every key is narrow, below 2^32, it multiplies by a reciprocal
// (Lemire, Kaser and Kurz's fastdiv, exact for 32-bit dividends and
// divisors); wider keys divide exactly.
type divisor struct {
	radix uint64
	magic uint64 // ⌈2^64 / radix⌉, the narrow reciprocal
}

func newDivisor(radix uint64) divisor { return divisor{radix, ^uint64(0)/radix + 1} }

func (d divisor) divmod(k uint64, narrow bool) (q, r uint64) {
	if narrow {
		q, _ = bits.Mul64(d.magic, k)
	} else {
		q = k / d.radix
	}
	return q, k - q*d.radix
}

// Decoder is Key's inverse over every dim of card, last dim first. A dim
// of cardinality 1 has only the coordinate 0 and costs no step.
type Decoder struct {
	digits []digit // least significant first
	narrow bool    // every key < 2^32
}

type digit struct {
	divisor
	dim int
}

// NewDecoder returns the decoder of keys over card, which must pass Fit.
func NewDecoder(card []int) Decoder {
	d := Decoder{digits: make([]digit, 0, len(card))}
	span := uint64(1) // ∏ card, wrapping to 0 at 2^64
	for dim := len(card) - 1; dim >= 0; dim-- {
		if c := uint64(card[dim]); c > 1 {
			d.digits = append(d.digits, digit{newDivisor(c), dim})
			span *= c
		}
	}
	d.narrow = span-1 < 1<<32
	return d
}

// Decode writes the coordinates of key k into coords, one per dimension.
func (d *Decoder) Decode(k uint64, coords []int) {
	clear(coords)
	for _, g := range d.digits {
		q, r := g.divmod(k, d.narrow)
		coords[g.dim], k = int(r), q
	}
}

// Rekeyer is the one roll-up key map, from keys over the dims in a mask
// to keys over those in a child ⊆ mask: the digits are peeled off last dim
// first, each child dim's landing at its place value in the child key. A
// dim of cardinality ≤ 1 is skipped; adjacent dims both kept, or both
// summed out, are peeled as one step whose radix is their cardinalities'
// product; the last step takes what the key has left, undivided.
type Rekeyer struct {
	steps  []rekeyStep // least significant first
	narrow bool        // every parent key < 2^32
}

type rekeyStep struct {
	divisor        // ∏ card over the step's dims; unused by the last step
	place   uint64 // the step's place value in the child key; 0 sums it out
}

// NewRekeyer returns the re-keyer from mask's keys over card, which must
// pass Fit, to child's.
func NewRekeyer(card []int, mask, child int) Rekeyer {
	var r Rekeyer
	span := uint64(1)            // ∏ card over the parent's dims, wrapping to 0 at 2^64
	pv, kept := uint64(1), false // the next child place value; whether the open step keeps its digits
	for d := len(card) - 1; d >= 0; d-- {
		if mask&(1<<uint(d)) == 0 || card[d] <= 1 {
			continue
		}
		c, keep := uint64(card[d]), child&(1<<uint(d)) != 0
		span *= c
		if len(r.steps) > 0 && keep == kept {
			r.steps[len(r.steps)-1].radix *= c
		} else {
			s := rekeyStep{divisor: divisor{radix: c}}
			if keep {
				s.place = pv
			}
			r.steps, kept = append(r.steps, s), keep
		}
		if keep {
			pv *= c
		}
	}
	r.narrow = span-1 < 1<<32
	if len(r.steps) == 0 {
		r.steps = []rekeyStep{{}} // no digit reaches the child: every key maps to 0
	}
	// Every step below the last has a dim of cardinality ≥ 2 above it, so
	// its radix is at most half the parent's key count: at most 2^63, and
	// at most 2^31 when the keys are narrow.
	for i := range r.steps[:len(r.steps)-1] {
		r.steps[i].divisor = newDivisor(r.steps[i].radix)
	}
	return r
}

// Key maps one parent key to its child key.
func (r *Rekeyer) Key(k uint64) uint64 {
	var ck uint64
	last := len(r.steps) - 1
	for _, s := range r.steps[:last] {
		q, digit := s.divmod(k, r.narrow)
		ck += digit * s.place
		k = q
	}
	return ck + k*r.steps[last].place
}

// Entry is one key and the value Sort carries with it. The key is a
// field, not a method, so the sort's inner loop reads it directly.
type Entry[V any] struct {
	Key uint64
	Val V
}

// Sort sorts src by Key, every key at most maxKey, one byte digit per
// pass, least significant first, skipping any digit every entry shares,
// with dst (as long as src) as the other buffer; it returns whichever
// holds the result. Each pass is stable: equal keys keep their order.
func Sort[V any](src, dst []Entry[V], maxKey uint64) []Entry[V] {
	var count [8][256]int
	passes := (bits.Len64(maxKey) + 7) / 8
	for _, e := range src {
		for p := 0; p < passes; p++ {
			count[p][byte(e.Key>>(8*p))]++
		}
	}
	for p := 0; p < passes; p++ {
		c := &count[p]
		if slices.Contains(c[:], len(src)) {
			continue // one digit value for every entry: the pass would move none
		}
		for b, off := 0, 0; b < len(c); b++ {
			c[b], off = off, off+c[b]
		}
		for _, e := range src {
			d := byte(e.Key >> (8 * p))
			dst[c[d]] = e
			c[d]++
		}
		src, dst = dst, src
	}
	return src
}

// Search returns where k is or would be in the ascending keys, and
// whether it is there. It gallops from the front, then halves the last
// stride with a conditional move, so it costs the log of the distance to
// k, not of the run: a merge's next key is usually near its last.
func Search(keys []uint64, k uint64) (int, bool) {
	hi := 1
	for hi < len(keys) && keys[hi-1] < k {
		hi *= 2
	}
	base, n := hi/2, min(hi, len(keys))-hi/2 // k's place is in [base, base+n]
	for n > 1 {
		half := n / 2
		if keys[base+half] < k {
			base += half
		}
		n -= half
	}
	if n == 1 && keys[base] < k {
		base++
	}
	return base, base < len(keys) && keys[base] == k
}
