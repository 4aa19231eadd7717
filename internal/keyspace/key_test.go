package keyspace

import (
	"math"
	"math/rand"
	"testing"
)

// dimsOf lists the dims set in mask, ascending.
func dimsOf(mask, n int) []int {
	var dims []int
	for d := 0; d < n; d++ {
		if mask&(1<<uint(d)) != 0 {
			dims = append(dims, d)
		}
	}
	return dims
}

// rekeyRef is the roll-up key map digit by digit: decode the parent key
// into one code per dim of mask, last dim first, then linearize the
// child's dims with Key.
func rekeyRef(card []int, mask, child int, k uint64) uint64 {
	row := make([]int, len(card))
	for d := len(card) - 1; d >= 0; d-- {
		if mask&(1<<uint(d)) != 0 {
			c := uint64(card[d])
			row[d], k = int(k%c), k/c
		}
	}
	ck, _ := Key(row, dimsOf(child, len(card)), card)
	return ck
}

// TestRekeyerMatchesDigits: for every (parent, child ⊆ parent) mask pair
// over random cardinalities — 1s among them, key spaces below and above
// 2^32 up to exactly 2^64 — the rekeyer maps keys at both ends of the
// parent's range and drawn from inside it exactly as rekeyRef does, on
// its narrow (reciprocal) path and its wide (exact division) one.
func TestRekeyerMatchesDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fixed := [][]int{
		{1 << 16, 1 << 16, 1 << 16, 1 << 16}, // keys to 2^64−1
		{1 << 32, 1, 1 << 32},                // keys to 2^64−1 through a card-1 dim
		{1 << 16, 1 << 16},                   // keys to 2^32−1: the last narrow space
		{1<<16 + 1, 1 << 16},                 // just past it: wide
		{65535, 65537, 1},                    // 2^32−1 keys, both factors odd
		{1, 1, 1},
		{100, 20, 180},
	}
	var narrow, wide, pairs int
	for trial := 0; trial < 300; trial++ {
		var card []int
		if trial < len(fixed) {
			card = fixed[trial]
		} else {
			card = make([]int, 1+rng.Intn(6))
			for d := range card {
				switch rng.Intn(4) {
				case 0:
					card[d] = 1
				case 1:
					card[d] = 2 + rng.Intn(9)
				case 2:
					card[d] = 2 + rng.Intn(5000)
				default:
					card[d] = 2 + rng.Intn(1<<20)
				}
			}
			if !Fit(card) {
				continue
			}
		}
		n := len(card)
		for mask := 0; mask < 1<<uint(n); mask++ {
			hi := Max(dimsOf(mask, n), card)
			keys := []uint64{0, hi, hi / 2, hi - min(hi, 1)}
			for i := 0; i < 20; i++ {
				k := rng.Uint64()
				if hi < math.MaxUint64 {
					k %= hi + 1
				}
				keys = append(keys, k)
			}
			for child := mask; ; child = (child - 1) & mask {
				rk := NewRekeyer(card, mask, child)
				if rk.narrow {
					narrow++
				} else {
					wide++
				}
				pairs++
				for _, k := range keys {
					if got, want := rk.Key(k), rekeyRef(card, mask, child, k); got != want {
						t.Fatalf("card %v, %b → %b: key %d maps to %d, want %d", card, mask, child, k, got, want)
					}
				}
				if child == 0 {
					break
				}
			}
		}
	}
	if narrow == 0 || wide == 0 {
		t.Fatalf("%d narrow and %d wide rekeyers over %d pairs: both paths must be covered", narrow, wide, pairs)
	}
}

// TestKeyReportsFirstBadDim: Key linearizes in-range coordinates
// row-major and names the first dim, in dims order, whose coordinate is
// negative or not below its cardinality.
func TestKeyReportsFirstBadDim(t *testing.T) {
	card := []int{3, 4, 5}
	cases := []struct {
		row, dims []int
		key       uint64
		bad       int
	}{
		{[]int{2, 3, 4}, []int{0, 1, 2}, 59, -1},
		{[]int{2, 3, 4}, []int{0, 2}, 14, -1},
		{[]int{1, 9, 4}, []int{2}, 4, -1},
		{[]int{1, 4, 4}, []int{0, 1, 2}, 0, 1},
		{[]int{-1, 0, 9}, []int{0, 1, 2}, 0, 0},
		{[]int{-1, 0, 9}, []int{2, 0}, 0, 2},
		{nil, nil, 0, -1},
	}
	for _, c := range cases {
		if k, bad := Key(c.row, c.dims, card); k != c.key || bad != c.bad {
			t.Errorf("Key(%v, %v) = (%d, %d), want (%d, %d)", c.row, c.dims, k, bad, c.key, c.bad)
		}
	}
}
