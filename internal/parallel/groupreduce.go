package parallel

import (
	"math"
	"sync"
	"sync/atomic"

	"statcube/internal/budget"
)

// pair routes one emission to its owning reducer: the key, the item that
// emitted it, and the emission ordinal within that item.
type pair struct {
	key  uint64
	item int32
	sub  int32
}

// HashOwner returns a key→owner router that spreads arbitrary keys
// uniformly across workers (Fibonacci multiplicative hash).
func HashOwner(workers int) func(uint64) int {
	w := uint64(workers)
	return func(k uint64) int {
		return int((k * 0x9E3779B97F4A7C15 >> 32) % w)
	}
}

// RangeOwner routes keys in [0, size) to workers by contiguous range —
// the right router when reducers write disjoint regions of a dense array
// (adjacent keys stay with one owner, preserving locality).
func RangeOwner(workers int, size uint64) func(uint64) int {
	per := (size + uint64(workers) - 1) / uint64(workers)
	if per == 0 {
		per = 1
	}
	return func(k uint64) int {
		o := int(k / per)
		if o >= workers {
			o = workers - 1
		}
		return o
	}
}

// GroupReduce is a deterministic two-phase parallel grouped reduction
// over items [0, n).
//
// Phase 1 (route): the items are split into one contiguous chunk per
// worker, in index order. Each chunk worker calls emit for its items, and
// every emitted key is buffered — with its (item, emission-ordinal)
// position — for the worker that owns the key. ownerOf must be a pure
// function of the key.
//
// Phase 2 (reduce): each owner worker replays its buffers in chunk order,
// which restores global (item, emission) order, calling reduce once per
// buffered emission.
//
// Because every key is owned by exactly one worker and replay order equals
// emission order, each key's reductions happen in exactly the order a
// sequential loop over the items would perform them. Order-sensitive
// reductions (floating-point accumulation) therefore produce byte-identical
// results to the sequential path, and reducers that write keyed state
// (per-owner maps, owner-disjoint ranges of a shared array) need no locks.
//
// emit runs concurrently across chunks but serially within one chunk;
// reduce runs concurrently across owners but serially within one owner.
// GroupReduce reports whether the parallel path ran to completion:
// (false, nil) means the stage resolved to a single worker (or n exceeds
// the int32 routing capacity), or the stage context was canceled
// mid-reduction. In both cases the caller should run its plain
// sequential loop — a canceled context makes that loop fail fast on its
// own context check, so partial reductions written by an aborted
// parallel pass are never returned as results. A panicking emit or
// reduce is contained at the worker boundary instead: the phase aborts,
// every goroutine drains, and GroupReduce returns (false, *PanicError) —
// the caller must surface that typed error, not fall back, because the
// sequential retry would deterministically re-panic with no containment.
// Workers poll the context between items, bounding cancellation latency,
// and every goroutine drains before GroupReduce returns.
func (s Stage) GroupReduce(
	n int,
	ownerOf func(key uint64) int,
	emit func(chunk, item int, out func(key uint64)),
	reduce func(owner int, key uint64, item, sub int),
) (bool, error) {
	w := Workers(s.Workers, n)
	if w <= 1 || n < 2 || n > math.MaxInt32 {
		return false, nil
	}
	sp := s.Begin(true, n, w)
	defer sp.End()
	var (
		aborted  atomic.Bool
		panicMu  sync.Mutex
		panicErr *PanicError
	)
	// keepPanic records the first contained panic (by phase order, then
	// lowest task index) and aborts the stage.
	keepPanic := func(pe *PanicError) {
		if pe == nil {
			return
		}
		panicMu.Lock()
		if panicErr == nil || pe.Task < panicErr.Task {
			panicErr = pe
		}
		panicMu.Unlock()
		aborted.Store(true)
	}
	// bufs[chunk][owner] holds the pairs chunk routed to owner; each inner
	// slice is written by one chunk goroutine and read by one owner
	// goroutine, strictly after the phase barrier.
	bufs := make([][][]pair, w)
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for c := 0; c < w; c++ {
		bufs[c] = make([][]pair, w)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lo, hi := c*chunk, (c+1)*chunk
			if hi > n {
				hi = n
			}
			route := bufs[c]
			tick := budget.NewTicker(s.Ctx, 0)
			task := lo
			defer func() { keepPanic(contain(task, recover())) }()
			// One routing closure per chunk, not per item: it reads the
			// current item from task and counts its emissions in sub.
			var sub int32
			out := func(key uint64) {
				o := ownerOf(key)
				route[o] = append(route[o], pair{key, int32(task), sub})
				sub++
			}
			for i := lo; i < hi; i++ {
				task = i
				if tick.Tick() != nil || aborted.Load() {
					aborted.Store(true)
					return
				}
				sub = 0
				emit(c, i, out)
			}
		}(c)
	}
	wg.Wait()
	if aborted.Load() {
		if panicErr != nil {
			sp.SetErr(panicErr)
			return false, panicErr
		}
		sp.SetErr(budget.Check(s.Ctx))
		return false, nil
	}
	for o := 0; o < w; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			tick := budget.NewTicker(s.Ctx, 0)
			task := -1
			defer func() { keepPanic(contain(task, recover())) }()
			for c := 0; c < w; c++ {
				for _, p := range bufs[c][o] {
					task = int(p.item)
					if tick.Tick() != nil || aborted.Load() {
						aborted.Store(true)
						return
					}
					reduce(o, p.key, int(p.item), int(p.sub))
				}
			}
		}(o)
	}
	wg.Wait()
	if aborted.Load() {
		if panicErr != nil {
			sp.SetErr(panicErr)
			return false, panicErr
		}
		sp.SetErr(budget.Check(s.Ctx))
		return false, nil
	}
	return true, nil
}
