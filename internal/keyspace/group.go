package keyspace

import (
	"fmt"
	"math"
	"math/bits"
)

// DenseSpan is the widest key range, in possible keys per entry, that
// Group ranks by presence bits instead of sorting the entries.
const DenseSpan = 4

// Width is the width a batch's keys are held in: a batch whose largest
// possible key is below 2^32 is keyed in half the bytes.
type Width interface{ ~uint32 | ~uint64 }

// Group is the one grouping primitive of core and cube, in the spirit of
// [GB+96]'s sort-then-fold group-by: it ranks a batch of keys, every one
// at most maxKey, returning the distinct keys ascending and each entry's
// position among them, keys[i] == distinct[pos[i]]. A caller folds its
// values into a fresh accumulator per distinct key in entry order,
// acc[pos[i]] ⊕= vals[i], so each key sees its values in input order,
// whatever branch ranked them. The branch is picked by the keys' shape:
//
//   - keys already ascending (a base arriving in key order) are ranked by
//     a running count of distinct keys, after one pass that checks their
//     order and counts them, stopping at the first descent;
//   - a key range within DenseSpan of the entry count is ranked by
//     presence bits: one pass sets every key's bit, a prefix count of the
//     bits per 64-bit word is taken, and an entry's position is its
//     word's prefix plus the bits below it in the word — no sort and no
//     scatter, [ZDN97]'s dense array without its array;
//   - a wider range is stable-radix-sorted (Sort) as (key, entry) pairs.
//
// Scratch is sized by maxKey or the entry count, never by the key space,
// which can be 2^64, and none of it outlives the call. The output is
// sized exactly. A position is 4 bytes, so Group panics past 2^32−1
// keys; its callers refuse such a batch first.
func Group[K Width](keys []K, maxKey uint64) (distinct []uint64, pos []uint32) {
	if uint64(len(keys)) > math.MaxUint32 {
		panic(fmt.Sprintf("keyspace: %d keys to group; at most 2^32-1", len(keys)))
	}
	pos = make([]uint32, len(keys))
	if n, ok := ascending(keys); ok {
		distinct = make([]uint64, n)
		d := -1
		for i, k := range keys {
			if d < 0 || uint64(k) != distinct[d] {
				d++
				distinct[d] = uint64(k)
			}
			pos[i] = uint32(d)
		}
		return distinct, pos
	}
	if maxKey/DenseSpan < uint64(len(keys)) {
		seen := make([]uint64, maxKey/64+1) // presence bits
		for _, k := range keys {
			seen[k/64] |= 1 << (k % 64)
		}
		prefix := make([]uint32, len(seen)) // set bits in the words before each
		n := 0
		for w, word := range seen {
			prefix[w] = uint32(n)
			n += bits.OnesCount64(word)
		}
		distinct = make([]uint64, 0, n)
		for w, word := range seen {
			for ; word != 0; word &= word - 1 {
				distinct = append(distinct, uint64(w)*64+uint64(bits.TrailingZeros64(word)))
			}
		}
		for i, k := range keys {
			w := k / 64
			pos[i] = prefix[w] + uint32(bits.OnesCount64(seen[w]&(1<<(k%64)-1)))
		}
		return distinct, pos
	}
	buf := make([]Entry[uint32], 2*len(keys)) // the (key, entry) pairs and the sort's other buffer
	src := buf[:len(keys)]
	for i, k := range keys {
		src[i] = Entry[uint32]{Key: uint64(k), Val: uint32(i)}
	}
	src = Sort(src, buf[len(keys):], maxKey)
	n := 0
	for j, e := range src {
		if j == 0 || e.Key != src[j-1].Key {
			n++
		}
	}
	distinct = make([]uint64, 0, n)
	for j, e := range src {
		if j == 0 || e.Key != src[j-1].Key {
			distinct = append(distinct, e.Key)
		}
		pos[e.Val] = uint32(len(distinct) - 1)
	}
	return distinct, pos
}

// ascending reports whether keys never descend and, if so, how many
// distinct keys they hold. It stops at the first descent.
func ascending[K Width](keys []K) (int, bool) {
	if len(keys) == 0 {
		return 0, true
	}
	distinct, prev := 1, keys[0]
	for _, k := range keys[1:] {
		if k < prev {
			return 0, false
		}
		if k != prev {
			distinct++
		}
		prev = k
	}
	return distinct, true
}
