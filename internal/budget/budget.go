// Package budget is the engine's resource governor: per-query memory and
// cell quotas, and the typed cancellation taxonomy every execution layer
// returns instead of partial garbage.
//
// The paper's closing argument is that the Statistical Object must be a
// first-class database citizen; at production scale that means every query
// and cube build is cancellable, deadline-bounded and memory-budgeted —
// [ZDN97]'s observation that array-based cube construction is memory-bound
// makes unbudgeted MOLAP builds the engine's biggest OOM risk.
//
// The package has two halves:
//
//   - Governor: an atomic reservation ledger with byte and cell quotas.
//     Builders Reserve an estimate before allocating (cells × cell width
//     for MOLAP arrays, per-entry accounting for ROLAP views) and
//     Release when the result is handed off. A reservation that would
//     exceed the quota fails with ErrBudgetExceeded, letting the caller
//     degrade (a MOLAP build falls back to smallest-parent ROLAP) or
//     abort cleanly.
//   - Cancellation: Check converts a done context into an error that is
//     both errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()), so
//     callers match the engine taxonomy or the stdlib sentinels as they
//     prefer. Ticker amortizes the check over tight scan loops so hot
//     paths pay one context poll per segment, not per cell — bounding
//     cancellation latency by segment size.
//
// A Governor travels in the context (WithGovernor / From), so the whole
// execution stack — query evaluation, cube builders, storage scans —
// shares one ledger per query. A nil Governor means "unlimited": every
// method is nil-safe, and un-governed call paths cost a pointer test.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"statcube/internal/obs"
)

// Typed error taxonomy. Every budgeted or cancellable entry point returns
// an error matching exactly one of these instead of partial results.
var (
	// ErrBudgetExceeded marks a reservation that would exceed the
	// governor's byte or cell quota.
	ErrBudgetExceeded = errors.New("budget: resource budget exceeded")
	// ErrCanceled marks work abandoned because its context was canceled
	// or its deadline passed. Errors carrying it also unwrap to the
	// underlying context error (context.Canceled or
	// context.DeadlineExceeded) and to context.Cause when one was set.
	ErrCanceled = errors.New("budget: canceled")
)

// Governance metrics, mirrored into the process-wide registry:
//
//	budget.bytes_reserved     (gauge) bytes currently reserved across all governors
//	budget.reservations       successful Reserve calls
//	budget.denials            reservations refused by a quota
//	engine.queries_canceled   queries/builds abandoned on a canceled context
var (
	bytesReservedGauge = obs.Default().Gauge("budget.bytes_reserved")
	reservations       = obs.Default().Counter("budget.reservations")
	denials            = obs.Default().Counter("budget.denials")
	queriesCanceled    = obs.Default().Counter("engine.queries_canceled")
)

// RecordCanceled charges one abandoned query/build to
// engine.queries_canceled. Entry points (query's one evaluation entry
// behind EvalCtx and the Run*Ctx forms, the cube builders) call it once
// per canceled operation — Check deliberately does not, since
// a single cancellation is observed by many polls on the way out.
func RecordCanceled() {
	if obs.On() {
		queriesCanceled.Inc()
	}
}

// globalReserved tracks bytes reserved across every live governor, so the
// budget.bytes_reserved gauge shows engine-wide memory pressure.
var globalReserved atomic.Int64

// cancelErr adapts a context error into the taxonomy: it Is ErrCanceled
// and unwraps to the context's error (and cause).
type cancelErr struct{ cause error }

func (e *cancelErr) Error() string { return "budget: canceled: " + e.cause.Error() }

func (e *cancelErr) Is(target error) bool { return target == ErrCanceled }

func (e *cancelErr) Unwrap() error { return e.cause }

// Check returns nil while ctx is live, and a taxonomy error once it is
// done: errors.Is(err, ErrCanceled) holds, as does errors.Is against the
// context's own error. A nil context never cancels.
func Check(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		if cause := context.Cause(ctx); cause != nil && !errors.Is(err, cause) {
			err = fmt.Errorf("%w (%v)", err, cause)
		}
		return &cancelErr{cause: err}
	}
	return nil
}

// IsCanceled reports whether err belongs to the cancellation branch of the
// taxonomy.
func IsCanceled(err error) bool { return errors.Is(err, ErrCanceled) }

// Limits bound one governor. Zero means unlimited for either quota.
type Limits struct {
	// MaxBytes caps concurrently reserved working memory.
	MaxBytes int64
	// MaxCells caps the total cells (rows, groups, array entries) a
	// query may produce.
	MaxCells int64
}

// Governor is an atomic reservation ledger enforcing Limits. All methods
// are safe for concurrent use and nil-safe — a nil *Governor admits
// everything, so un-governed paths need no branching.
type Governor struct {
	limits Limits
	bytes  atomic.Int64
	peak   atomic.Int64 // high-water mark of bytes, CAS-maintained
	cells  atomic.Int64
}

// NewGovernor returns a governor enforcing the given limits.
func NewGovernor(l Limits) *Governor { return &Governor{limits: l} }

// Reserve claims n bytes of working memory, failing with ErrBudgetExceeded
// (and no ledger change) if the claim would exceed MaxBytes. Non-positive
// n is a no-op.
func (g *Governor) Reserve(n int64) error {
	if g == nil || n <= 0 {
		return nil
	}
	now := g.bytes.Add(n)
	if g.limits.MaxBytes > 0 && now > g.limits.MaxBytes {
		g.bytes.Add(-n)
		if obs.On() {
			denials.Inc()
		}
		return fmt.Errorf("%w: %d bytes requested, %d of %d reserved",
			ErrBudgetExceeded, n, now-n, g.limits.MaxBytes)
	}
	for {
		old := g.peak.Load()
		if old >= now || g.peak.CompareAndSwap(old, now) {
			break
		}
	}
	if obs.On() {
		reservations.Inc()
		bytesReservedGauge.Set(float64(globalReserved.Add(n)))
	}
	return nil
}

// Release returns n reserved bytes to the budget. Releasing more than was
// reserved clamps the ledger at zero rather than going negative.
func (g *Governor) Release(n int64) {
	if g == nil || n <= 0 {
		return
	}
	for {
		cur := g.bytes.Load()
		rel := n
		if rel > cur {
			rel = cur
		}
		if g.bytes.CompareAndSwap(cur, cur-rel) {
			if obs.On() && rel > 0 {
				bytesReservedGauge.Set(float64(globalReserved.Add(-rel)))
			}
			return
		}
	}
}

// AddCells charges n produced cells against the cell quota, failing with
// ErrBudgetExceeded once the cumulative total passes MaxCells. Unlike
// bytes, cells are never released — the quota bounds total output, not
// concurrent footprint.
func (g *Governor) AddCells(n int64) error {
	if g == nil || n <= 0 {
		return nil
	}
	now := g.cells.Add(n)
	if g.limits.MaxCells > 0 && now > g.limits.MaxCells {
		if obs.On() {
			denials.Inc()
		}
		return fmt.Errorf("%w: %d cells produced, quota %d", ErrBudgetExceeded, now, g.limits.MaxCells)
	}
	return nil
}

// BytesReserved returns the governor's currently reserved bytes.
func (g *Governor) BytesReserved() int64 {
	if g == nil {
		return 0
	}
	return g.bytes.Load()
}

// PeakBytes returns the ledger's high-water mark: the largest number of
// bytes concurrently reserved over the governor's lifetime. Unlike
// BytesReserved it never decreases, making it the per-query memory cost
// the flight recorder and EXPLAIN ANALYZE report after the work is done
// (and the ledger has drained).
func (g *Governor) PeakBytes() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// CellsUsed returns the cells charged so far.
func (g *Governor) CellsUsed() int64 {
	if g == nil {
		return 0
	}
	return g.cells.Load()
}

// Limits returns the governor's limits (zero Limits for nil).
func (g *Governor) Limits() Limits {
	if g == nil {
		return Limits{}
	}
	return g.limits
}

type ctxKey struct{}

// WithGovernor attaches g to the context; every budgeted entry point below
// recovers it with From. Attaching nil returns ctx unchanged.
func WithGovernor(ctx context.Context, g *Governor) context.Context {
	if g == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, g)
}

// From returns the context's governor, or nil (= unlimited) when none is
// attached. A nil context is accepted.
func From(ctx context.Context) *Governor {
	if ctx == nil {
		return nil
	}
	g, _ := ctx.Value(ctxKey{}).(*Governor)
	return g
}

// DefaultTickEvery is how many Tick calls a Ticker amortizes one context
// poll over. Scans check between segments of this many items, so
// cancellation latency is bounded by segment size while the hot loop pays
// an integer increment per item.
const DefaultTickEvery = 4096

// Ticker amortizes context checks over tight loops: Tick returns a
// taxonomy error only on the polls it actually performs (every `every`
// calls, and on the first). Not safe for concurrent use — each worker
// keeps its own.
type Ticker struct {
	//lint:ignore ctxfirst Ticker is a loop-local poll amortizer created and dropped inside one call frame; storing ctx is its whole point
	ctx   context.Context
	every int
	left  int // Ticks until the next poll; 0 polls on this one
}

// NewTicker returns a ticker polling ctx every `every` Ticks (values < 1
// use DefaultTickEvery).
func NewTicker(ctx context.Context, every int) *Ticker {
	if every < 1 {
		every = DefaultTickEvery
	}
	return &Ticker{ctx: ctx, every: every}
}

// Tick counts one unit of work and polls the context when the amortization
// window rolls over: a countdown, so the hot loop pays a decrement and a
// compare, not a divide. A failed poll leaves the countdown at zero, so
// every later Tick polls again.
func (t *Ticker) Tick() error {
	if t.ctx == nil {
		return nil
	}
	if t.left == 0 {
		if err := Check(t.ctx); err != nil {
			return err
		}
		t.left = t.every
	}
	t.left--
	return nil
}
