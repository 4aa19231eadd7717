package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"statcube/internal/fault"
	"statcube/internal/obs"
)

// TestForEachContainsPanicParallel: a panicking task on the parallel path
// surfaces as a typed *PanicError, the pool drains, and the process lives.
func TestForEachContainsPanicParallel(t *testing.T) {
	st := Stage{Name: "test", Workers: 4}
	var ran atomic.Int64
	err := st.ForEach(100, func(i int) error {
		ran.Add(1)
		if i == 17 {
			panic(fmt.Sprintf("boom on %d", i))
		}
		return nil
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T does not unwrap to *PanicError", err)
	}
	if pe.Task != 17 || pe.Value != "boom on 17" {
		t.Errorf("PanicError = task %d value %v", pe.Task, pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panic") {
		t.Error("PanicError carries no useful stack")
	}
}

// TestForEachContainsPanicSequential: the one-worker inline path contains
// identically — same typed error whatever the worker count.
func TestForEachContainsPanicSequential(t *testing.T) {
	st := Stage{Name: "test", Workers: 1}
	err := st.ForEach(10, func(i int) error {
		if i == 3 {
			panic(errors.New("inline boom"))
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Task != 3 {
		t.Fatalf("sequential containment: err = %v", err)
	}
}

// TestForEachFirstPanicWins: like errors, the surfaced panic is the one
// with the lowest task index among tasks that ran.
func TestForEachFirstPanicWins(t *testing.T) {
	st := Stage{Name: "test", Workers: 1}
	err := st.ForEach(10, func(i int) error {
		panic(i)
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Task != 0 {
		t.Fatalf("first panic should win: %v", err)
	}
}

// TestPanicCounter: contained panics are charged to parallel.panics.
func TestPanicCounter(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	before := obs.Default().Snapshot().Counters["parallel.panics"]
	st := Stage{Name: "test", Workers: 2}
	_ = st.ForEach(10, func(i int) error { panic("count me") })
	after := obs.Default().Snapshot().Counters["parallel.panics"]
	if after <= before {
		t.Fatalf("parallel.panics did not advance: %d -> %d", before, after)
	}
}

// TestInjectedPanicContained: a panic-mode fault injection at the
// parallel.task hook is contained exactly like a task panic, with the
// injector's payload as the panic value.
func TestInjectedPanicContained(t *testing.T) {
	inj := fault.New(fault.Schedule{Seed: 11, Rate: 1, Mode: fault.Panic, MaxInjections: 1,
		Points: []string{fault.PointParallelTask}})
	ctx := fault.WithInjector(context.Background(), inj)
	st := Stage{Name: "test", Workers: 4, Ctx: ctx}
	err := st.ForEach(100, func(i int) error { return nil })
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("injected panic not contained: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatal("no PanicError in chain")
	}
	if _, ok := pe.Value.(*fault.InjectedPanic); !ok {
		t.Fatalf("panic value %T, want *fault.InjectedPanic", pe.Value)
	}
	if inj.Injected() != 1 {
		t.Fatalf("injected %d, want 1", inj.Injected())
	}
}

// TestInjectedErrorStopsStage: error-mode injection at parallel.task
// propagates as a typed stage error.
func TestInjectedErrorStopsStage(t *testing.T) {
	inj := fault.New(fault.Schedule{Seed: 11, Rate: 1, Mode: fault.Error, MaxInjections: 1,
		Points: []string{fault.PointParallelTask}})
	ctx := fault.WithInjector(context.Background(), inj)
	st := Stage{Name: "test", Workers: 4, Ctx: ctx}
	err := st.ForEach(100, func(i int) error { return nil })
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}
