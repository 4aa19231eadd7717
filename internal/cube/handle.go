package cube

import "sync/atomic"

// ReadHandle is a generation-pinned view of a materialized set: the MVCC
// read side of the engine's write path. A reader acquires a handle,
// answers any number of queries against one immutable generation, and
// releases it when done; the writer publishes newer generations
// concurrently without ever blocking — or being blocked by — a handle.
//
// The pin has two halves: the in-memory set is immutable and reachable
// for as long as the handle references it (the garbage collector is the
// reclaimer), and the release callback unpins the on-disk snapshot
// generation so the store's pruning can reclaim it once no reader needs
// it for recovery.
type ReadHandle struct {
	set      *MaterializedSet
	gen      uint64
	release  func()
	released atomic.Bool
}

// NewReadHandle wraps a published generation. release (may be nil) runs
// exactly once, on Release — internal/writer passes the store unpin.
func NewReadHandle(set *MaterializedSet, gen uint64, release func()) *ReadHandle {
	return &ReadHandle{set: set, gen: gen, release: release}
}

// Generation returns the pinned snapshot generation number.
func (h *ReadHandle) Generation() uint64 { return h.gen }

// Set returns the pinned materialized set, shared by every handle on the
// generation. Its stored runs are immutable and shared with the
// generations around it — Answer hands out a fresh map per call — and
// the only call that changes a set, AppendRowsCtx, swaps in new runs
// for a set no reader holds (a Clone), never a published one: the next
// generation is a Clone of this one with a batch folded in, and this
// one stays as it is.
func (h *ReadHandle) Set() *MaterializedSet { return h.set }

// Answer answers a group-by against the pinned generation (see
// MaterializedSet.Answer); the map is the caller's own. Safe for
// concurrent use across handles.
func (h *ReadHandle) Answer(mask int) (map[uint64]float64, int64, error) {
	return h.set.Answer(mask)
}

// Release unpins the generation. Idempotent — only the first call runs
// the release callback, so a deferred Release composes with an early
// explicit one.
func (h *ReadHandle) Release() {
	if h.released.CompareAndSwap(false, true) && h.release != nil {
		h.release()
	}
}
