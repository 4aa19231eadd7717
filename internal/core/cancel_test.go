package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"statcube/internal/budget"
)

// countdownCtx cancels itself after a fixed number of Err polls, hitting
// the group-by operators at deterministic interior points.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(polls int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(polls))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestOpsPreCanceled: a done context aborts S-project and S-aggregation
// with the typed taxonomy and no result object.
func TestOpsPreCanceled(t *testing.T) {
	o := wideObject(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := o.SProjectCtx(ctx, "dim1"); err == nil || res != nil {
		t.Errorf("SProjectCtx: res=%v err=%v", res, err)
	} else if !budget.IsCanceled(err) {
		t.Errorf("SProjectCtx: %v is not ErrCanceled", err)
	}
	if res, err := o.SAggregateCtx(ctx, "region", "state"); err == nil || res != nil {
		t.Errorf("SAggregateCtx: res=%v err=%v", res, err)
	} else if !budget.IsCanceled(err) {
		t.Errorf("SAggregateCtx: %v is not ErrCanceled", err)
	}
	if res, err := o.AutoAggregateCtx(ctx, AutoQuery{Where: map[string]Pick{"region": {Level: "state", Values: []Value{"st-0"}}}}, nil); err == nil || res != nil {
		t.Errorf("AutoAggregateCtx: res=%v err=%v", res, err)
	} else if !budget.IsCanceled(err) {
		t.Errorf("AutoAggregateCtx: %v is not ErrCanceled", err)
	}
}

// TestOpsMidFlightCancel drives S-project through a countdown context:
// every abort must be typed, with no partial object, and completion must
// match the un-canceled result bit for bit.
func TestOpsMidFlightCancel(t *testing.T) {
	o := wideObject(t)
	want, err := o.SProject("dim1", "dim2")
	if err != nil {
		t.Fatal(err)
	}
	sawCancel := false
	for polls := 0; polls < 12; polls++ {
		ctx := newCountdownCtx(polls)
		res, err := o.SProjectCtx(ctx, "dim1", "dim2")
		if err != nil {
			sawCancel = true
			if !budget.IsCanceled(err) {
				t.Fatalf("polls=%d: %v is not ErrCanceled", polls, err)
			}
			if res != nil {
				t.Fatalf("polls=%d: partial object escaped", polls)
			}
			continue
		}
		cellsIdentical(t, want, res)
	}
	if !sawCancel {
		t.Error("countdown never fired; test lost its bite")
	}
}

// TestOpsCellQuota: a governor's cell quota bounds a group-by's output.
func TestOpsCellQuota(t *testing.T) {
	o := wideObject(t)
	gov := budget.NewGovernor(budget.Limits{MaxCells: 3})
	ctx := budget.WithGovernor(context.Background(), gov)
	_, err := o.SProjectCtx(ctx, "dim1", "dim2")
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Errorf("cell quota not enforced: %v", err)
	}
	// A quota with headroom admits the same call.
	gov2 := budget.NewGovernor(budget.Limits{MaxCells: 1 << 20})
	ctx2 := budget.WithGovernor(context.Background(), gov2)
	res, err := o.SProjectCtx(ctx2, "dim1", "dim2")
	if err != nil {
		t.Fatalf("admitting quota rejected the fold: %v", err)
	}
	if gov2.CellsUsed() != int64(res.Cells()) {
		t.Errorf("governor charged %d cells, result has %d", gov2.CellsUsed(), res.Cells())
	}
}
