// Package fault is the engine's fault-injection layer: a deterministic,
// seeded injector that travels in the context (mirroring budget.Governor)
// and fires at named hook points threaded through the engine's IO and
// scan boundaries — storage scans, cube build stages, parallel worker
// tasks, and every snapshot write/read step.
//
// A database earns the word by surviving crashes, torn writes and bad
// bytes; the chaos suite (chaos_test.go) drives real workloads under
// systematic schedules and asserts the engine-wide invariant: every
// operation either returns the byte-identical correct result or a clean
// typed error — never partial state, never a leaked ledger reservation,
// never a readable corrupt snapshot.
//
// Determinism: the injector derives each decision from (Seed, point,
// per-point hit ordinal) with a splitmix64 mix — no math/rand, no clocks
// — so a schedule replays the same decision sequence per hook point on
// every run. Under a parallel stage the mapping of ordinals to goroutines
// can vary, but which ordinals fire cannot, which is what the chaos
// invariants need to be reproducible.
//
// Production cost: a nil *Injector is "no faults" and every method is
// nil-safe, so un-instrumented paths pay one context lookup at an
// operation boundary (or nothing, when the caller resolved the injector
// once) plus a pointer test per hook.
package fault

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"statcube/internal/obs"
)

// Named hook points. Every Hit site in the engine uses one of these
// constants, so a Schedule can arm exactly the boundaries a test is
// about; DESIGN.md "Failure model & durability" is the registry.
const (
	// PointColstoreScan guards colstore Select/Sum/GroupSum scan entry.
	PointColstoreScan = "colstore.scan"
	// PointRelstoreScan guards relstore Select scan entry.
	PointRelstoreScan = "relstore.scan"
	// PointMarrayChunk guards chunked-array subcube reads.
	PointMarrayChunk = "marray.chunk"
	// PointCubeView fires once per view task inside the cube builders.
	PointCubeView = "cube.view"
	// PointParallelTask fires before each task a parallel stage claims.
	PointParallelTask = "parallel.task"
	// PointSnapshotWrite wraps the snapshot data writer (torn writes and
	// bit-flips corrupt here; error mode fails the write).
	PointSnapshotWrite = "snapshot.write"
	// PointSnapshotSection fires before each encoded snapshot section.
	PointSnapshotSection = "snapshot.section"
	// PointSnapshotRename fires after the temp file is written and synced,
	// before the atomic rename — the classic crash window.
	PointSnapshotRename = "snapshot.rename"
	// PointSnapshotRead fires before each decoded snapshot section.
	PointSnapshotRead = "snapshot.read"
	// PointLogWrite fires before each append-log record is written (error
	// mode fails the append, panic mode dies before it) and wraps the log
	// file's writer (torn writes and bit-flips land in the record). A
	// fault that fails the append leaves no record behind.
	PointLogWrite = "log.write"
	// PointQlogWrite wraps the flight recorder's NDJSON sink append
	// (error mode fails the append; short/torn writes and bit-flips
	// corrupt the line — which the log reader must skip and count, never
	// propagate into the recorded flight's own outcome).
	PointQlogWrite = "qlog.write"
	// PointServeHandler fires at the top of the query daemon's request
	// handler, after admission — an injected error must surface to the
	// client as a typed error body, never a partial response.
	PointServeHandler = "serve.handler"
	// PointCacheFill fires after a result-cache fill computes but before
	// the entry is stored — an injected error must leave the cache
	// unpopulated (no poisoned partial result) and fail the request
	// with a typed error.
	PointCacheFill = "cache.fill"
	// PointWriterAppend fires at the start of each attempt to load an
	// appended batch — an injected error must leave the published
	// generation untouched and no log record; the batch is published by
	// a retry or by no attempt at all.
	PointWriterAppend = "writer.append"
	// PointWriterDelta fires before each view's delta fold during a load —
	// an injected error must discard the staged generation whole; a
	// partially delta-maintained view is never visible.
	PointWriterDelta = "writer.delta"
	// PointWriterPublish fires after the staged generation is durably
	// saved and before it becomes reader-visible — the write path's own
	// crash window on top of snapshot.rename. A fault here leaves the
	// previous generation authoritative; the retried load converges to a
	// byte-identical state.
	PointWriterPublish = "writer.publish"
)

// Mode selects what an armed injector does when a decision fires.
type Mode int

const (
	// Error returns a typed *InjectedError from Hit.
	Error Mode = iota
	// Panic panics with a *InjectedPanic value. internal/parallel contains
	// worker panics into parallel.ErrWorkerPanic; a panic on a plain call
	// path crashes the process — which is exactly what the snapshot crash
	// tests use it for.
	Panic
	// ShortWrite makes the wrapped Writer persist only a prefix of one
	// write and then fail with *InjectedError — a torn write.
	ShortWrite
	// BitFlip makes the wrapped Writer silently flip one bit of one write
	// and report success — corruption only a checksum can catch.
	BitFlip
)

// String names the mode for diagnostics.
func (m Mode) String() string {
	switch m {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case ShortWrite:
		return "short-write"
	case BitFlip:
		return "bit-flip"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrInjected is the sentinel every error-mode injection matches:
// errors.Is(err, fault.ErrInjected). Chaos suites treat it as "clean
// typed failure" alongside the budget taxonomy.
var ErrInjected = errors.New("fault: injected failure")

// InjectedError is one fired error-mode decision: the hook point and the
// per-point ordinal that fired, for reproducing a schedule's exact step.
type InjectedError struct {
	Point string
	Hit   int64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected failure at %s (hit %d)", e.Point, e.Hit)
}

// Is matches the ErrInjected sentinel.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// InjectedPanic is the value a panic-mode injection panics with; the
// parallel pool's containment surfaces it inside parallel.ErrWorkerPanic.
type InjectedPanic struct {
	Point string
	Hit   int64
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (hit %d)", p.Point, p.Hit)
}

// Schedule is a reproducible fault plan.
type Schedule struct {
	// Seed drives every decision; the same seed replays the same per-point
	// decision sequence.
	Seed uint64
	// Points lists the armed hook points. Empty means every point.
	Points []string
	// Rate is the per-evaluation firing probability in [0, 1]. Rate 1
	// fires on every evaluation of an armed point.
	Rate float64
	// Mode is what firing does (Error, Panic, ShortWrite, BitFlip).
	Mode Mode
	// MaxInjections caps total fired decisions; 0 means unlimited. A cap
	// of 1 turns a schedule into "first armed evaluation fails".
	MaxInjections int64
}

// Injection metrics:
//
//	fault.evaluations  armed hook-point decisions taken
//	fault.injected     decisions that fired (any mode)
var (
	evalCounter     = obs.Default().Counter("fault.evaluations")
	injectedCounter = obs.Default().Counter("fault.injected")
)

// Injector evaluates a Schedule at hook points. All methods are nil-safe
// and safe for concurrent use; a nil *Injector never fires.
type Injector struct {
	seed      uint64
	threshold uint64 // Rate scaled to the uint64 range
	points    map[string]bool
	mode      Mode
	max       int64

	mu       sync.Mutex
	ordinals map[string]*atomic.Int64
	injected atomic.Int64
	evals    atomic.Int64
}

// New compiles a schedule into an injector.
func New(s Schedule) *Injector {
	inj := &Injector{
		seed:     s.Seed,
		mode:     s.Mode,
		max:      s.MaxInjections,
		ordinals: map[string]*atomic.Int64{},
	}
	switch {
	case s.Rate >= 1:
		inj.threshold = ^uint64(0)
	case s.Rate <= 0:
		inj.threshold = 0
	default:
		inj.threshold = uint64(s.Rate * float64(1<<63) * 2)
	}
	if len(s.Points) > 0 {
		inj.points = make(map[string]bool, len(s.Points))
		for _, p := range s.Points {
			inj.points[p] = true
		}
	}
	return inj
}

// splitmix64 is the SplitMix64 output mix — a strong, allocation-free,
// stdlib-only bijection used to turn (seed, point, ordinal) into a
// uniform decision value.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// pointHash folds a hook-point name into the decision stream (FNV-1a).
func pointHash(point string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= 1099511628211
	}
	return h
}

// ordinal returns the per-point hit counter, creating it on first use.
func (i *Injector) ordinal(point string) *atomic.Int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	o := i.ordinals[point]
	if o == nil {
		o = &atomic.Int64{}
		i.ordinals[point] = o
	}
	return o
}

// armed reports whether the point participates in the schedule.
func (i *Injector) armed(point string) bool {
	return i.points == nil || i.points[point]
}

// decide evaluates one hook-point hit and returns (ordinal, fired).
func (i *Injector) decide(point string) (int64, bool) {
	if i == nil || !i.armed(point) || i.threshold == 0 {
		return 0, false
	}
	n := i.ordinal(point).Add(1) - 1
	i.evals.Add(1)
	if obs.On() {
		evalCounter.Inc()
	}
	v := splitmix64(i.seed ^ pointHash(point) ^ uint64(n)*0x9E3779B97F4A7C15)
	if v > i.threshold {
		return n, false
	}
	if i.max > 0 && i.injected.Add(1) > i.max {
		i.injected.Add(-1)
		return n, false
	}
	if i.max <= 0 {
		i.injected.Add(1)
	}
	if obs.On() {
		injectedCounter.Inc()
	}
	return n, true
}

// Hit evaluates the schedule at a hook point: nil when nothing fires, a
// typed *InjectedError in Error mode, and a panic carrying
// *InjectedPanic in Panic mode. Write-corruption modes (ShortWrite,
// BitFlip) never fire from Hit — they only act through Writer — so scan
// hooks can share a schedule with write hooks without spurious errors.
func (i *Injector) Hit(point string) error {
	if i == nil {
		return nil
	}
	switch i.mode {
	case Error, Panic:
	default:
		return nil
	}
	n, fired := i.decide(point)
	if !fired {
		return nil
	}
	if i.mode == Panic {
		panic(&InjectedPanic{Point: point, Hit: n})
	}
	return &InjectedError{Point: point, Hit: n}
}

// Injected returns how many decisions have fired.
func (i *Injector) Injected() int64 {
	if i == nil {
		return 0
	}
	return i.injected.Load()
}

// Evaluations returns how many armed decisions were taken.
func (i *Injector) Evaluations() int64 {
	if i == nil {
		return 0
	}
	return i.evals.Load()
}

// Writer wraps w with the schedule's write-corruption behavior at the
// given point. In ShortWrite mode a fired write persists only half its
// bytes and returns a typed *InjectedError; in BitFlip mode a fired
// write silently flips one bit (the payload is copied first — the
// caller's buffer is never mutated) and succeeds. Other modes, a nil
// injector, or an un-armed point return w unchanged.
func (i *Injector) Writer(point string, w io.Writer) io.Writer {
	if i == nil || !i.armed(point) {
		return w
	}
	if i.mode != ShortWrite && i.mode != BitFlip {
		return w
	}
	return &faultWriter{inj: i, point: point, w: w}
}

// faultWriter applies ShortWrite/BitFlip decisions to a write stream.
type faultWriter struct {
	inj   *Injector
	point string
	w     io.Writer
}

func (f *faultWriter) Write(p []byte) (int, error) {
	n, fired := f.inj.decide(f.point)
	if !fired || len(p) == 0 {
		return f.w.Write(p)
	}
	if f.inj.mode == ShortWrite {
		k, err := f.w.Write(p[:len(p)/2])
		if err != nil {
			return k, err
		}
		return k, &InjectedError{Point: f.point, Hit: n}
	}
	// BitFlip: corrupt a copy, report success.
	c := append([]byte(nil), p...)
	bit := splitmix64(f.inj.seed^uint64(n)) % uint64(len(c)*8)
	c[bit/8] ^= 1 << (bit % 8)
	return f.w.Write(c)
}
