package cube

import (
	"math"
	"math/bits"
	"slices"

	"statcube/internal/keyspace"
)

// run is a sorted key run: group keys ascending, each key's sum beside
// it. That is the snapshot view section's layout held in memory as it is
// on disk, so encoding is a loop, decoding a fill, and rolling a view up
// visits its cells in one fixed order without sorting anything. A run is
// immutable once built: generations share runs instead of copying them.
type run struct {
	keys []uint64
	sums []float64
}

// A block is the key range a roll-up window sums at a time: 8192 keys,
// whose float64 accumulator, 64 KiB, lives on the goroutine's stack and
// in the core's cache (see rollUp).
const (
	blockSize  = 1 << 13
	blockWords = blockSize / 64 // presence words per block
)

// group is the package's grouping kernel: it folds the entries (keys[i],
// vals[i]), every key at most maxKey, into a run, sized exactly. The keys
// are ranked by keyspace.Group and the values summed into their ranks,
// each key's sum starting from +0 and adding its values in input order —
// bit for bit what `m[k] += v` over the entries gives — whichever of
// Group's branches (ascending, dense rank, radix sort) ranked them.
// The smallest-parent builds group the base rows once they are keyed
// (see Input.groupBase), and roll views up by windows of their parent
// run, falling back to group only for wide or sparse children (see
// rollUp). None of the scratch outlives the call: no pooled buffer, so a
// finished build holds only its runs.
func group[K keyspace.Width](keys []K, vals []float64, maxKey uint64) *run {
	distinct, pos := keyspace.Group(keys, maxKey)
	sums := make([]float64, len(distinct))
	for i, p := range pos {
		sums[p] += vals[i]
	}
	return &run{keys: distinct, sums: sums}
}

// readBlock writes the present keys of one block (base plus the offsets
// whose bits are set in seen) and their sums, ascending, into keys and
// sums, zeroing each accumulator slot it reads. It returns how many it
// wrote.
func readBlock(acc *[blockSize]float64, seen []uint64, base uint64, keys []uint64, sums []float64) int {
	n := 0
	for wi, w := range seen {
		for ; w != 0; w &= w - 1 {
			o := (wi*64 + bits.TrailingZeros64(w)) & (blockSize - 1)
			keys[n], sums[n] = base+uint64(o), acc[o]
			acc[o] = 0
			n++
		}
	}
	return n
}

// rollUp folds a parent run, ascending, into a child group-by that drops
// some of the parent's dimensions (keyspace.Rekeyer maps the keys). The
// child keys are not ascending in general, but they are in windows: the
// child dims the parent orders before its first dropped dim (skipping
// dims of cardinality 1) form a prefix that never descends along the
// parent run, and the child keys under one prefix value fill one range of
// W keys, W the product of the kept cardinalities after that dim. So:
//
//   - W = 1 — a child that drops only trailing dims, or none — gets its
//     keys ascending, and sums each run of equal keys in one linear pass;
//   - W ≤ blockSize, on a dense child, sums whole prefixes at a time into
//     a stack accumulator of blockSize keys, [ZDN97]'s one scan of the
//     parent without re-sorting it, and reads each window out ascending
//     through readBlock when the next key falls past it;
//   - a wider window, or a sparse child (a key range beyond
//     keyspace.DenseSpan of the parent's entries, whose windows would be
//     mostly empty), keys the parent in one slice and groups it (see
//     group).
//
// Each child key's sum starts from +0 and adds its parent sums in the
// parent's key order on every branch, so a view is bit for bit the same
// whichever branch builds it.
type rollUp struct {
	rk     keyspace.Rekeyer
	maxKey uint64 // the child's largest key
	window uint64 // W, or 0 when the child is grouped by group
}

// newRollUp plans the roll-up of a parent run of entries entries over
// the dims in parent into child's, card passing keyspace.Fit.
func newRollUp(card []int, parent, child, entries int) rollUp {
	u := rollUp{rk: keyspace.NewRekeyer(card, parent, child), maxKey: keyspace.Max(maskDims(child, len(card)), card)}
	w, dropped := uint64(1), false
	for d, c := range card {
		if parent&(1<<uint(d)) == 0 || c <= 1 {
			continue
		}
		switch {
		case child&(1<<uint(d)) == 0:
			dropped = true
		case dropped:
			if uint64(c) > blockSize/w {
				return u // wider than a block
			}
			w *= uint64(c)
		}
	}
	if w > 1 && u.maxKey/keyspace.DenseSpan >= uint64(entries) {
		return u // sparse
	}
	u.window = w
	return u
}

// fold rolls the parent run (keys, sums) up into the child's run, sized
// exactly.
func (u *rollUp) fold(keys []uint64, sums []float64) *run {
	if u.window == 0 {
		ck := make([]uint64, len(keys))
		for i, k := range keys {
			ck[i] = u.rk.Key(k)
		}
		return group(ck, sums, u.maxKey)
	}
	// The child has at most one key per parent entry and per key in its
	// range; the runs are copied to their exact size if they hold fewer.
	n := len(keys)
	if u.maxKey < uint64(n) {
		n = int(u.maxKey) + 1
	}
	r := &run{keys: make([]uint64, n), sums: make([]float64, n)}
	if u.window == 1 {
		n = u.foldSorted(keys, sums, r)
	} else {
		n = u.foldWindows(keys, sums, r)
	}
	if n == len(r.keys) {
		return r
	}
	exact := &run{keys: make([]uint64, n), sums: make([]float64, n)}
	copy(exact.keys, r.keys)
	copy(exact.sums, r.sums)
	return exact
}

// foldSorted sums the child's ascending keys' runs into r, returning how
// many keys it wrote.
func (u *rollUp) foldSorted(keys []uint64, sums []float64, r *run) int {
	if len(keys) == 0 {
		return 0
	}
	n, ck, sum := 0, u.rk.Key(keys[0]), 0.0
	for i, k := range keys {
		if c := u.rk.Key(k); c != ck {
			r.keys[n], r.sums[n] = ck, sum
			n, ck, sum = n+1, c, 0
		}
		sum += sums[i]
	}
	r.keys[n], r.sums[n] = ck, sum
	return n + 1
}

// foldWindows sums the child keys a window of whole prefixes at a time —
// span keys from lo, a prefix's first key — into the accumulator, and
// reads each window out into r when a key falls past it, the next window
// starting at that key's prefix. It returns how many keys it wrote.
func (u *rollUp) foldWindows(keys []uint64, sums []float64, r *run) int {
	var acc [blockSize]float64
	var seen [blockWords]uint64
	span := blockSize / u.window * u.window
	lo, n := uint64(0), 0
	for i, k := range keys {
		o := u.rk.Key(k) - lo // the parent ascends, so no key is below lo
		if o >= span {
			n += readBlock(&acc, seen[:], lo, r.keys[n:], r.sums[n:])
			clear(seen[:])
			ck := lo + o
			lo = ck - ck%u.window
			o = ck - lo
		}
		o &= blockSize - 1
		acc[o] += sums[i]
		seen[o/64] |= 1 << (o % 64)
	}
	return n + readBlock(&acc, seen[:], lo, r.keys[n:], r.sums[n:])
}

// view is one stored view: a packed run overlaid by a delta run — the
// Cubetree's [RKR97] bulk-update discipline held in memory. The delta
// holds the full current sum of every key a load touched since the last
// pack, so the view's entries are the packed run's with the delta's
// replacing or joining them, and packing is an overlay merge with no
// arithmetic. Both runs are immutable: a load builds a new delta (and,
// when it packs, a new packed run) and shares the rest.
type view struct {
	packed, delta run
	size          int // entries across both: the packed run's plus the delta keys it lacks
}

// packedView stores a freshly built run as a view with an empty delta.
func packedView(r *run) *view { return &view{packed: *r, size: len(r.keys)} }

// cursor walks a view's entries in ascending key order, a delta entry
// replacing the packed one with its key: the one way a stored view is
// read, so roll-ups, answers and encodings see one sorted run. It hands
// the entries out in stretches, each a sub-slice of one run, so a view
// without a delta is one stretch and read as fast as a plain run.
type cursor struct {
	v    *view
	i, j int // the next packed and delta entries
}

func (v *view) cursor() cursor { return cursor{v: v} }

// next returns the next stretch of entries — the packed entries below
// the next delta key, or the delta entries below the next packed key
// and the one that replaces it — and an empty one past the last. A
// stretch's end is found by a linear scan: a walk of every entry costs
// one compare per entry, however the two runs interleave.
func (c *cursor) next() ([]uint64, []float64) {
	p, d := &c.v.packed, &c.v.delta
	pk, dk := p.keys, d.keys
	i, j := c.i, c.j
	switch {
	case j == len(dk):
		c.i = len(pk)
		return pk[i:], p.sums[i:]
	case i == len(pk):
		c.j = len(dk)
		return dk[j:], d.sums[j:]
	case pk[i] < dk[j]:
		n := i
		for n < len(pk) && pk[n] < dk[j] {
			n++
		}
		c.i = n
		return pk[i:n], p.sums[i:n]
	}
	n := j
	for n < len(dk) && dk[n] < pk[i] {
		n++
	}
	if n < len(dk) && dk[n] == pk[i] {
		n++ // the delta entry replaces the packed one
		c.i++
	}
	c.j = n
	return dk[j:n], d.sums[j:n]
}

// each calls f with every stretch of v's entries, in ascending key order.
func (v *view) each(f func(keys []uint64, sums []float64)) {
	for c := v.cursor(); ; {
		keys, sums := c.next()
		if len(keys) == 0 {
			return
		}
		f(keys, sums)
	}
}

// fold returns the view that folding the sorted entries of one batch
// (equal keys in row order, see keyspace.Sort) into v gives; v is untouched.
// One forward merge of the batch with the delta builds the new delta:
// each batch key's sum continues from the delta's, else from the packed
// run's, else from +0, adding the key's values in row order — bit for
// bit `view[key] += val` over the rows. The packed run is only searched,
// never copied, until the delta reaches √(2·packed·rows) entries: then
// the new view packs, merging the delta into a new packed run. A delta
// grows by at most the batch's rows per load, so copying it every load
// and the packed run once per pack copies the fewest entries per load
// when the pack comes at that size. It is computed from sizes alone.
func (v *view) fold(batch []keyspace.Entry[float64]) *view {
	if len(batch) == 0 {
		return v
	}
	p, d := v.packed, v.delta
	out := run{keys: make([]uint64, len(d.keys)+len(batch)), sums: make([]float64, len(d.keys)+len(batch))}
	size := v.size
	// i is the next delta entry, w the next out slot; packed keys below
	// lo are below every batch key left.
	i, w, lo := 0, 0, 0
	for j := 0; j < len(batch); w++ {
		k := batch[j].Key
		for ; i < len(d.keys) && d.keys[i] < k; i, w = i+1, w+1 {
			out.keys[w], out.sums[w] = d.keys[i], d.sums[i]
		}
		s := 0.0
		if i < len(d.keys) && d.keys[i] == k {
			s = d.sums[i]
			i++
		} else {
			at, found := keyspace.Search(p.keys[lo:], k)
			lo += at
			if found {
				s = p.sums[lo]
			} else {
				size++
			}
		}
		for ; j < len(batch) && batch[j].Key == k; j++ {
			s += batch[j].Val
		}
		out.keys[w], out.sums[w] = k, s
	}
	copy(out.sums[w:], d.sums[i:])
	w += copy(out.keys[w:], d.keys[i:])
	out.keys, out.sums = out.keys[:w], out.sums[:w]
	next := &view{packed: p, delta: out, size: size}
	if n := uint64(w); n*n >= 2*uint64(len(p.keys))*uint64(len(batch)) {
		return next.pack()
	}
	return next
}

// pack overlays the delta on the packed run: a new view whose packed run
// holds every entry of v, in the cursor's order, and whose delta is
// empty.
func (v *view) pack() *view {
	r := run{keys: make([]uint64, 0, v.size), sums: make([]float64, 0, v.size)}
	v.each(func(keys []uint64, sums []float64) {
		r.keys, r.sums = append(r.keys, keys...), append(r.sums, sums...)
	})
	return &view{packed: r, size: v.size}
}

// equal reports whether two views hold the same entries, keys equal and
// sums that same accepts pairwise, however each splits them between its
// packed run and its delta.
func (v *view) equal(o *view, same func(a, b float64) bool) bool {
	if v.size != o.size {
		return false
	}
	a, b := v.cursor(), o.cursor()
	var ak, bk []uint64
	var as, bs []float64
	for {
		if len(ak) == 0 {
			ak, as = a.next()
		}
		if len(bk) == 0 {
			bk, bs = b.next()
		}
		n := min(len(ak), len(bk))
		if n == 0 {
			return len(ak) == len(bk)
		}
		if !slices.Equal(ak[:n], bk[:n]) || !slices.EqualFunc(as[:n], bs[:n], same) {
			return false
		}
		ak, as, bk, bs = ak[n:], as[n:], bk[n:], bs[n:]
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// within is Equal's tolerance: 1e-9, relative once |a| exceeds 1.
func within(a, b float64) bool {
	return !(math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)))
}
