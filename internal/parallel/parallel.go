// Package parallel is the engine-wide fan-out layer: a GOMAXPROCS-aware
// bounded worker pool with deterministic merge order and error propagation
// that cancels queued work. The cube builders' per-level lattice walk and
// the colstore/relstore segmented scans run their independent tasks
// through this package, so every parallel stage in the engine shares one
// contract:
//
//   - the parallel path produces byte-identical output to the sequential
//     path: tasks write disjoint outputs, merged in task order;
//   - inputs smaller than MinWork stay sequential — fan-out overhead must
//     never regress small queries;
//   - every stage is observable through internal/obs (stage and task
//     counters) and, when a span is attached, renders as a
//     parallel:/sequential: child in EXPLAIN ANALYZE output — the
//     per-stage breakdown lives in the span tree, keeping the metric
//     namespace literal and bounded;
//   - every stage honors context cancellation and deadlines: a stage with
//     a Ctx attached checks it between tasks (sequential and parallel
//     paths alike), so cancellation latency is bounded by one task, the
//     pool drains its goroutines, and the caller gets the typed
//     budget.ErrCanceled instead of partial output.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"statcube/internal/budget"
	"statcube/internal/fault"
	"statcube/internal/obs"
)

// MinWork is the default input-size threshold below which callers should
// keep their sequential path: fan-out setup costs more than it saves on
// small inputs, and small queries must not regress.
const MinWork = 4096

// Workers resolves a worker-count request against the task count: 0 (or
// negative) means GOMAXPROCS, and the result never exceeds the number of
// tasks nor drops below 1.
func Workers(limit, tasks int) int {
	w := limit
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Stage is one named fan-out point. Workers caps the fan-out (0 means
// GOMAXPROCS); Span, when non-nil, receives a parallel:/sequential: child
// annotated with the task and worker counts; Ctx, when non-nil, is checked
// between tasks so a canceled or deadline-expired context stops the stage
// with budget.ErrCanceled before the next task starts.
type Stage struct {
	Name    string
	Workers int
	Span    *obs.Span
	//lint:ignore ctxfirst Stage is an options bundle consumed before ForEach returns; the context never outlives the call it configures
	Ctx context.Context
}

// Stage metrics: how many stages ran parallel vs sequential, and total
// tasks executed.
var (
	stagesPar = obs.Default().Counter("parallel.stages_parallel")
	stagesSeq = obs.Default().Counter("parallel.stages_sequential")
	tasksRun  = obs.Default().Counter("parallel.tasks")
)

func (s Stage) name() string {
	if s.Name == "" {
		return "stage"
	}
	return s.Name
}

// begin records one stage execution — counters and a span child — and
// returns the child span; ForEach ends it when the stage completes.
func (s Stage) begin(par bool, tasks, workers int) *obs.Span {
	if obs.On() {
		if par {
			stagesPar.Inc()
		} else {
			stagesSeq.Inc()
		}
		tasksRun.Add(int64(tasks))
	}
	mode := "sequential:"
	if par {
		mode = "parallel:"
	}
	c := s.Span.Child(mode + s.name())
	c.AddInt("tasks", int64(tasks))
	c.AddInt("workers", int64(workers))
	return c
}

// ForEach runs fn(0), …, fn(n-1) across the stage's workers. Tasks are
// claimed from an atomic counter, so each index runs exactly once; with
// one worker (or fewer than two tasks) the loop runs inline with no
// goroutines. The first error — lowest task index among the tasks that
// ran — is returned, and any error stops workers from claiming further
// tasks: in-flight tasks finish, queued ones never start.
//
// A canceled stage context counts as an error on the task about to be
// claimed, so cancellation propagates exactly like a task failure: queued
// tasks never start, every worker drains, and the returned error matches
// budget.ErrCanceled.
//
// A stage whose tasks write disjoint outputs (distinct slice elements,
// per-task maps) therefore produces identical results on the sequential
// and parallel paths.
//
// Tasks are panic-contained: a panicking fn (or a panic-mode fault
// injection at the parallel.task hook) is recovered at the worker
// boundary and surfaced as a typed *PanicError matching ErrWorkerPanic,
// with the same first-error and drain semantics as a returned error —
// on both the sequential and parallel paths.
func (s Stage) ForEach(n int, fn func(task int) error) error {
	if n <= 0 {
		return nil
	}
	inj := fault.From(s.Ctx)
	run := func(i int) error {
		return runTask(i, func(i int) error {
			if err := inj.Hit(fault.PointParallelTask); err != nil {
				return err
			}
			return fn(i)
		})
	}
	w := Workers(s.Workers, n)
	if w <= 1 {
		sp := s.begin(false, n, 1)
		defer sp.End()
		for i := 0; i < n; i++ {
			if err := budget.Check(s.Ctx); err != nil {
				sp.SetErr(err)
				return err
			}
			if err := run(i); err != nil {
				sp.SetErr(err)
				return err
			}
		}
		return nil
	}
	sp := s.begin(true, n, w)
	defer sp.End()
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := budget.Check(s.Ctx); err != nil {
					record(i, err)
					return
				}
				if err := run(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		sp.SetErr(firstErr)
	}
	return firstErr
}

// Map runs fn for every index and returns the results in index order —
// the deterministic merge order of a fan-out stage. On error the partial
// results are discarded.
func Map[T any](s Stage, n int, fn func(task int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := s.ForEach(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
