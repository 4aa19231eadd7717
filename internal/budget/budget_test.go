package budget

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReserveRelease(t *testing.T) {
	g := NewGovernor(Limits{MaxBytes: 100})
	if err := g.Reserve(60); err != nil {
		t.Fatalf("Reserve(60): %v", err)
	}
	if err := g.Reserve(50); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Reserve(50) over budget: got %v, want ErrBudgetExceeded", err)
	}
	if got := g.BytesReserved(); got != 60 {
		t.Fatalf("failed reservation changed ledger: %d bytes reserved, want 60", got)
	}
	g.Release(20)
	if err := g.Reserve(50); err != nil {
		t.Fatalf("Reserve(50) after release: %v", err)
	}
	if got := g.BytesReserved(); got != 90 {
		t.Fatalf("BytesReserved = %d, want 90", got)
	}
	g.Release(1000) // over-release clamps at zero
	if got := g.BytesReserved(); got != 0 {
		t.Fatalf("over-release left %d bytes, want 0", got)
	}
}

func TestUnlimitedAndNil(t *testing.T) {
	g := NewGovernor(Limits{})
	if err := g.Reserve(1 << 50); err != nil {
		t.Fatalf("unlimited governor refused: %v", err)
	}
	var nilG *Governor
	if err := nilG.Reserve(1 << 50); err != nil {
		t.Fatalf("nil governor refused: %v", err)
	}
	nilG.Release(10)
	if err := nilG.AddCells(1 << 50); err != nil {
		t.Fatalf("nil governor refused cells: %v", err)
	}
	if nilG.BytesReserved() != 0 || nilG.CellsUsed() != 0 {
		t.Fatal("nil governor reported nonzero usage")
	}
}

func TestAddCellsQuota(t *testing.T) {
	g := NewGovernor(Limits{MaxCells: 10})
	if err := g.AddCells(7); err != nil {
		t.Fatalf("AddCells(7): %v", err)
	}
	if err := g.AddCells(3); err != nil {
		t.Fatalf("AddCells(3) at quota: %v", err)
	}
	if err := g.AddCells(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("AddCells past quota: got %v, want ErrBudgetExceeded", err)
	}
}

func TestCheckTaxonomy(t *testing.T) {
	if err := Check(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	if err := Check(nil); err != nil {
		t.Fatalf("nil context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Check(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled context: %v not Is ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v not Is context.Canceled", err)
	}
	if !IsCanceled(err) {
		t.Fatalf("IsCanceled(%v) = false", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	derr := Check(dctx)
	if !errors.Is(derr, ErrCanceled) || !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("deadline context: %v must Is ErrCanceled and DeadlineExceeded", derr)
	}
	if errors.Is(derr, ErrBudgetExceeded) {
		t.Fatalf("cancellation error must not match ErrBudgetExceeded: %v", derr)
	}
}

func TestCheckCause(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("shed load"))
	err := Check(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("caused cancellation: %v", err)
	}
	if want := "shed load"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention cause %q", err, want)
	}
}

func TestGovernorConcurrent(t *testing.T) {
	g := NewGovernor(Limits{MaxBytes: 1000})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := g.Reserve(5); err == nil {
					g.Release(5)
				}
			}
		}()
	}
	wg.Wait()
	if got := g.BytesReserved(); got != 0 {
		t.Fatalf("ledger drifted under concurrency: %d, want 0", got)
	}
}

func TestContextPlumbing(t *testing.T) {
	g := NewGovernor(Limits{MaxBytes: 1})
	ctx := WithGovernor(context.Background(), g)
	if From(ctx) != g {
		t.Fatal("From did not return the attached governor")
	}
	if From(context.Background()) != nil {
		t.Fatal("From on a bare context must return nil")
	}
	if From(nil) != nil {
		t.Fatal("From(nil) must return nil")
	}
	if got := WithGovernor(ctx, nil); got != ctx {
		t.Fatal("attaching a nil governor must return ctx unchanged")
	}
}

// pollCtx counts its Err calls and fails every one once failing is set. A
// failed Check calls Err twice (once more through context.Cause), so a
// test reads "it polled" as "the count moved".
type pollCtx struct {
	context.Context
	polls   int
	failing bool
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.failing {
		return context.Canceled
	}
	return nil
}

// TestTickerSchedule pins when a Ticker polls: on the first Tick, then on
// every `every`-th after it — call 0, every, 2·every, … — and, once a poll
// has failed, on every later Tick until one succeeds.
func TestTickerSchedule(t *testing.T) {
	for _, every := range []int{1, 2, 7, DefaultTickEvery} {
		ctx := &pollCtx{Context: context.Background()}
		tick := NewTicker(ctx, every)
		if every == DefaultTickEvery {
			tick = NewTicker(ctx, 0)
		}
		calls := 3*every + 1
		for i := 0; i < calls; i++ {
			before := ctx.polls
			if err := tick.Tick(); err != nil {
				t.Fatalf("every %d, call %d: %v", every, i, err)
			}
			if polled, want := ctx.polls > before, i%every == 0; polled != want {
				t.Fatalf("every %d, call %d: polled %v, want %v", every, i, polled, want)
			}
		}
		// The window after call 3·every runs out at call 4·every: the
		// calls before it pass without a poll, that one fails, and so
		// does every call after it, each polling.
		ctx.failing = true
		for i := calls; i < 4*every; i++ {
			if err := tick.Tick(); err != nil {
				t.Fatalf("every %d, call %d: %v before the window ran out", every, i, err)
			}
		}
		for i := 0; i < 3; i++ {
			before := ctx.polls
			if err := tick.Tick(); !errors.Is(err, ErrCanceled) || ctx.polls == before {
				t.Fatalf("every %d, failing call %d: err %v, %d Err calls", every, i, err, ctx.polls-before)
			}
		}
		// A poll that succeeds again opens a fresh window.
		ctx.failing = false
		before := ctx.polls
		for i := 0; i < every; i++ {
			if err := tick.Tick(); err != nil {
				t.Fatalf("every %d, recovered call %d: %v", every, i, err)
			}
		}
		if ctx.polls != before+1 {
			t.Fatalf("every %d: %d Err calls in the window after recovery, want 1", every, ctx.polls-before)
		}
	}
}

func TestTicker(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tick := NewTicker(ctx, 10)
	if err := tick.Tick(); err != nil {
		t.Fatalf("first tick on live ctx: %v", err)
	}
	cancel()
	// Ticks within the amortization window pass; the next poll fails.
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = tick.Tick()
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("ticker never surfaced cancellation within one window: %v", err)
	}
	nilTick := NewTicker(nil, 0)
	for i := 0; i < 3; i++ {
		if err := nilTick.Tick(); err != nil {
			t.Fatalf("nil-ctx ticker: %v", err)
		}
	}
}
