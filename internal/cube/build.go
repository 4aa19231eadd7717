package cube

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"statcube/internal/budget"
	"statcube/internal/fault"
	"statcube/internal/keyspace"
	"statcube/internal/obs"
	"statcube/internal/parallel"
	"statcube/internal/qlog"
)

// This file implements full-cube construction — every view of the lattice
// — three ways, reproducing the Section 6.6 ROLAP/MOLAP comparison:
//
//   - ROLAPNaive: one hash group-by over the base table per view, the
//     pre-[GB+96] "group-by per subset, union them" plan;
//   - ROLAPSmallestParent: each view computed from its smallest already
//     computed ancestor, the standard relational cube optimization;
//   - MOLAP: the base data loaded into a dense linearized array, each view
//     aggregated from its smallest parent array with pure index
//     arithmetic — the array-based simultaneous aggregation of [ZDN97].
//
// Inputs are dictionary-coded: each row is one int code per dimension plus
// a measure value. All three produce identical Views.

// Input is a coded fact table.
type Input struct {
	Card []int   // per-dimension cardinality
	Rows [][]int // coded dimension values, one slice per row
	Vals []float64
}

// Validate checks coding invariants. Builders compute all 2^n views, so
// the dimensionality is capped well before that blows up, and every view
// key must fit in 64 bits.
func (in *Input) Validate() error {
	if err := in.validateHeader(); err != nil {
		return err
	}
	all := maskDims(1<<uint(len(in.Card))-1, len(in.Card))
	for ri, row := range in.Rows {
		if len(row) != len(in.Card) {
			return fmt.Errorf("cube: row %d has %d dims, want %d", ri, len(row), len(in.Card))
		}
		if _, d := keyspace.Key(row, all, in.Card); d >= 0 {
			return fmt.Errorf("cube: row %d dim %d code %d out of [0,%d)", ri, d, row[d], in.Card[d])
		}
	}
	return nil
}

// validateHeader is Validate's O(1) part: the dimension cap, the key
// width, the row count against the value count, and the row count
// keyspace.Group can rank.
func (in *Input) validateHeader() error {
	if len(in.Card) > 16 {
		return fmt.Errorf("cube: %d dimensions means 2^%d views; refusing", len(in.Card), len(in.Card))
	}
	if !keyspace.Fit(in.Card) {
		return fmt.Errorf("cube: cardinalities %v span more than 2^64 keys", in.Card)
	}
	if len(in.Rows) != len(in.Vals) {
		return fmt.Errorf("cube: %d rows, %d values", len(in.Rows), len(in.Vals))
	}
	if uint64(len(in.Rows)) > math.MaxUint32 {
		return fmt.Errorf("cube: %d rows, more than keyspace.Group ranks (2^32-1)", len(in.Rows))
	}
	return nil
}

// groupBase is the smallest-parent builds' base group-by, in one pass
// over the rows: after Validate's O(1) checks it checks each row while
// linearizing it into its base-cuboid key (narrow, 4 bytes, when every
// key is below 2^32), polling ctx once per budget.DefaultTickEvery rows;
// then it groups the keys and values (see group). At the first bad row
// it returns Validate's error, which names that row, since every row
// before it passed; so a bad input fails before any view is built. A
// canceled pass is recorded as a build abort.
func (in *Input) groupBase(ctx context.Context) (*run, error) {
	if err := in.validateHeader(); err != nil {
		return nil, err
	}
	all := maskDims(1<<uint(len(in.Card))-1, len(in.Card))
	maxKey := keyspace.Max(all, in.Card)
	if maxKey < 1<<32 {
		return groupRows[uint32](ctx, in, all, maxKey)
	}
	return groupRows[uint64](ctx, in, all, maxKey)
}

// groupRows is groupBase's pass with K-wide keys over the dims in all,
// every key at most maxKey.
func groupRows[K keyspace.Width](ctx context.Context, in *Input, all []int, maxKey uint64) (*run, error) {
	card := in.Card
	keys := make([]K, len(in.Rows))
	for lo := 0; lo < len(keys); lo += budget.DefaultTickEvery {
		if err := budget.Check(ctx); err != nil {
			recordBuildAbort(err)
			return nil, err
		}
		hi := min(lo+budget.DefaultTickEvery, len(keys))
		for i, row := range in.Rows[lo:hi] {
			if len(row) != len(card) {
				return nil, in.Validate()
			}
			k, bad := keyspace.Key(row, all, card)
			if bad >= 0 {
				return nil, in.Validate()
			}
			keys[lo+i] = K(k)
		}
	}
	return group(keys, in.Vals, maxKey), nil
}

// Views holds every computed view: per mask, the view's linearized group
// keys and their aggregated sums, read as one sorted run (see view).
type Views struct {
	Card   []int
	stored []*view // indexed by mask; nil where the view is not stored
}

// maskDims lists the dimensions participating in a mask.
func maskDims(mask, n int) []int {
	dims := make([]int, 0, bits.OnesCount(uint(mask)))
	for d := 0; d < n; d++ {
		if mask&(1<<uint(d)) != 0 {
			dims = append(dims, d)
		}
	}
	return dims
}

// View returns one stored view as a fresh map from group key to sum (nil
// if the mask is out of range or not stored).
func (v *Views) View(mask int) map[uint64]float64 {
	if mask < 0 || mask >= len(v.stored) || v.stored[mask] == nil {
		return nil
	}
	r := v.stored[mask]
	m := make(map[uint64]float64, r.size)
	for c := r.cursor(); ; {
		keys, sums := c.next()
		if len(keys) == 0 {
			return m
		}
		for i, k := range keys {
			m[k] = sums[i]
		}
	}
}

// Equal compares two cubes within a small tolerance.
func (v *Views) Equal(o *Views) bool { return v.equal(o, within) }

// equal reports whether both cubes store the same masks with the same keys
// and sums that same accepts.
func (v *Views) equal(o *Views, same func(a, b float64) bool) bool {
	if len(v.stored) != len(o.stored) {
		return false
	}
	for mask, a := range v.stored {
		b := o.stored[mask]
		if (a == nil) != (b == nil) || a != nil && !a.equal(b, same) {
			return false
		}
	}
	return true
}

// Options configure a cube build. The zero value is the auto-tuned
// default: fan out across GOMAXPROCS when the input is large enough,
// stay sequential otherwise. Whatever the settings, the produced Views
// are byte-identical — parallelism never changes a single bit of output.
type Options struct {
	// Workers caps the fan-out: 0 means GOMAXPROCS, 1 forces the
	// sequential path.
	Workers int
	// Span, when non-nil, receives one child span per build stage,
	// rendering the parallel-vs-sequential split in EXPLAIN output.
	Span *obs.Span
}

// parMinRows is the input-row threshold below which the builders stay
// sequential (tests lower it to drive the parallel path on small inputs).
var parMinRows = parallel.MinWork

// stage resolves build options into a fan-out stage: below the row
// threshold the stage is pinned to one worker, which makes every
// ForEach on it run inline. The build context rides on the
// stage, so every level fan-out and row scan checks it between tasks.
func (o Options) stage(ctx context.Context, name string, rows int) parallel.Stage {
	st := parallel.Stage{Name: name, Workers: o.Workers, Span: o.Span, Ctx: ctx}
	if rows < parMinRows {
		st.Workers = 1
	}
	return st
}

// runEntryBytes is the budget charge per stored view entry, built or
// decoded: what a run holds for it, an 8-byte key and an 8-byte float sum.
const runEntryBytes = 16

// accountant tracks one build's reservations against the context's
// governor so they can be charged view by view (concurrently — the
// governor is atomic) and released wholesale when the build hands its
// result off or aborts.
type accountant struct {
	gov      *budget.Governor
	reserved atomic.Int64
	cells    atomic.Int64
}

func newAccountant(ctx context.Context) *accountant {
	return &accountant{gov: budget.From(ctx)}
}

// chargeView reserves the memory of one view's run and charges its entries
// against the cell quota.
func (a *accountant) chargeView(entries int) error {
	if a.gov == nil {
		return nil
	}
	if err := a.gov.AddCells(int64(entries)); err != nil {
		return err
	}
	b := int64(entries) * runEntryBytes
	if err := a.gov.Reserve(b); err != nil {
		return err
	}
	a.reserved.Add(b)
	a.cells.Add(int64(entries))
	return nil
}

// reserve claims raw bytes (the MOLAP dense-array estimate).
func (a *accountant) reserve(b int64) error {
	if a.gov == nil {
		return nil
	}
	if err := a.gov.Reserve(b); err != nil {
		return err
	}
	a.reserved.Add(b)
	return nil
}

// close releases everything the build reserved; the result's footprint is
// the caller's to govern from here.
func (a *accountant) close() {
	if a.gov != nil {
		a.gov.Release(a.reserved.Swap(0))
	}
}

// Identical reports whether two cubes are exactly equal: the same masks
// stored, the same keys, bit-identical float values. The parallel builders
// guarantee this against their sequential counterparts, and the write
// path's chaos suite asserts it of recovered generations.
func (v *Views) Identical(o *Views) bool { return v.equal(o, sameBits) }

// Masks lists the stored view masks, ascending.
func (v *Views) Masks() []int {
	var out []int
	for mask, r := range v.stored {
		if r != nil {
			out = append(out, mask)
		}
	}
	return out
}

// size is the entry count of a stored view (0 if not stored) — the linear
// scan cost of answering from it.
func (v *Views) size(mask int) int64 {
	if r := v.stored[mask]; r != nil {
		return int64(r.size)
	}
	return 0
}

// newViews allocates the container for a cube of the given cardinalities
// with no view stored yet.
func newViews(card []int) *Views {
	return &Views{Card: append([]int(nil), card...), stored: make([]*view, 1<<uint(len(card)))}
}

// everyMask is the wanted-predicate of a full cube build.
func everyMask(int) bool { return true }

// BuildROLAPNaiveCtx computes every view with an independent hash
// group-by over the base rows: 2^n full scans. The group-bys are
// independent, so views fan out one task per mask;
// each task hashes the rows in order into its own map and groups that
// into the view's run, making the parallel result trivially byte-identical
// to the sequential one. Cancellation is checked between views and between
// row segments inside each scan, and a governor on ctx is charged per
// finished view; on any failure the build returns the typed error and no
// Views. An enabled flight recorder logs the build's wall time, ledger
// peaks and typed outcome.
func BuildROLAPNaiveCtx(ctx context.Context, in *Input, opt Options) (_ *Views, err error) {
	defer recordBuildFlight(ctx, "rolap_naive", qlog.Start(), in, opt, nil, &err)
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Card)
	out := newViews(in.Card)
	st := opt.stage(ctx, "cube.rolap_naive", len(in.Rows))
	acct := newAccountant(ctx)
	defer acct.close()
	inj := fault.From(ctx)
	err = st.ForEach(len(out.stored), func(mask int) error {
		// Each view scan is a cube.view fault hook: chaos tests fail or
		// panic a single view's computation and assert the whole build
		// unwinds cleanly.
		if err := inj.Hit(fault.PointCubeView); err != nil {
			return err
		}
		dims := maskDims(mask, n)
		a := map[uint64]float64{}
		tick := budget.NewTicker(ctx, 0)
		for ri, row := range in.Rows {
			if err := tick.Tick(); err != nil {
				return err
			}
			k, _ := keyspace.Key(row, dims, in.Card) // Validate checked the row
			a[k] += in.Vals[ri]
		}
		if err := acct.chargeView(len(a)); err != nil {
			return err
		}
		keys, sums := make([]uint64, 0, len(a)), make([]float64, 0, len(a))
		for k, s := range a {
			keys, sums = append(keys, k), append(sums, s)
		}
		out.stored[mask] = packedView(group(keys, sums, keyspace.Max(dims, in.Card)))
		return nil
	})
	if err != nil {
		recordBuildAbort(err)
		return nil, err
	}
	return out, nil
}

// BuildROLAPSmallestParentCtx computes the base view from the rows, then
// each remaining view from its smallest already-computed parent, walking
// the lattice base-first (see walk). Aggregating from a (usually much
// smaller) parent is the standard relational cube optimization.
// Cancellation is checked between levels and between row segments,
// bounding latency; a governor on ctx is charged runEntryBytes per entry
// of each finished view. An enabled flight recorder logs the build's wall
// time, ledger peaks and typed outcome.
func BuildROLAPSmallestParentCtx(ctx context.Context, in *Input, opt Options) (_ *Views, err error) {
	defer recordBuildFlight(ctx, "rolap_sp", qlog.Start(), in, opt, nil, &err)
	base, err := in.groupBase(ctx)
	if err != nil {
		return nil, err
	}
	return walkRuns(ctx, in, base, opt.stage(ctx, "cube.rolap_sp", len(in.Rows)), everyMask)
}

// walkRuns computes the wanted views of in (the base cuboid always): the
// base is the run groupBase built, and every other view is rolled up from
// its smallest computed ancestor (see rollUp). It is the whole of the
// smallest-parent ROLAP build and of MaterializeCtx, which differ only in
// the masks they want.
func walkRuns(ctx context.Context, in *Input, base *run, st parallel.Stage, wanted func(mask int) bool) (*Views, error) {
	n := len(in.Card)
	out := newViews(in.Card)
	acct := newAccountant(ctx)
	defer acct.close()
	err := walk(ctx, st, n, wanted, out.size, func(mask, parent int) error {
		r := base
		if parent >= 0 {
			r = aggregateFromParent(out, parent, mask)
		}
		if err := acct.chargeView(len(r.keys)); err != nil {
			return err
		}
		out.stored[mask] = packedView(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walk is the one lattice traversal every ancestor-derived build runs: the
// base cuboid first (compute is handed parent -1), then one popcount level
// at a time, finest first, every wanted view of a level concurrently, each
// from its smallest computed ancestor. Parent choices for a level are
// resolved sequentially before the fan-out — views of equal popcount can
// never derive from each other, so the choices match a sequential walk
// exactly and the concurrent tasks only read finished views. size reports
// the cost of scanning a computed view; compute stores the view it
// produces. Cancellation is checked between levels, each non-base view is
// a cube.view fault hook, and any failure is classified once, here.
func walk(ctx context.Context, st parallel.Stage, n int, wanted func(mask int) bool, size func(mask int) int64, compute func(mask, parent int) error) (err error) {
	defer func() { recordBuildAbort(err) }() // a no-op on nil
	base := 1<<uint(n) - 1
	levels := make([][]int, n) // wanted non-base masks by popcount, ascending within a level
	for mask := 0; mask < base; mask++ {
		if wanted(mask) {
			pc := bits.OnesCount(uint(mask))
			levels[pc] = append(levels[pc], mask)
		}
	}
	if err := compute(base, -1); err != nil {
		return err
	}
	computed := []int{base}
	for pc := n - 1; pc >= 0; pc-- {
		level := levels[pc]
		if len(level) == 0 {
			continue
		}
		if err := budget.Check(ctx); err != nil {
			return err
		}
		parents := make([]int, len(level))
		for i, mask := range level {
			parents[i], _, _ = smallestAncestor(mask, computed, size)
		}
		err := st.ForEach(len(level), func(i int) error {
			if err := fault.Hit(ctx, fault.PointCubeView); err != nil {
				return err
			}
			return compute(level[i], parents[i])
		})
		if err != nil {
			return err
		}
		computed = append(computed, level...)
	}
	return nil
}

// smallestAncestor picks, among the candidate views, the one mask is
// derivable from that is cheapest to scan, and reports whether any
// qualifies. Ties go to the lowest mask, so the choice never depends on
// the order (or the map iteration) that produced the candidates.
func smallestAncestor(mask int, candidates []int, size func(mask int) int64) (best int, bestSize int64, ok bool) {
	for _, c := range candidates {
		if !DerivableFrom(mask, c) {
			continue
		}
		if s := size(c); !ok || s < bestSize || (s == bestSize && c < best) {
			best, bestSize, ok = c, s, true
		}
	}
	return best, bestSize, ok
}

// aggregateFromParent rolls a parent view a build computed up into the
// child's group-by (see rollUp). A view a build computes is packed, with
// no delta, so the parent run is walked as stored, in ascending key
// order, and each child key accumulates its float sum in one fixed order
// — the determinism the byte-identical parallel/sequential guarantee
// rests on.
func aggregateFromParent(v *Views, parent, child int) *run {
	p := v.stored[parent].packed
	u := newRollUp(v.Card, parent, child, len(p.keys))
	return u.fold(p.keys, p.sums)
}
