package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"statcube/internal/budget"
)

// TestForEachCanceled: a done stage context stops ForEach on both paths
// with the typed error, and tasks past the cancellation never start.
func TestForEachCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		err := Stage{Name: "test", Workers: workers, Ctx: ctx}.ForEach(1000, func(int) error {
			ran.Add(1)
			return nil
		})
		if !budget.IsCanceled(err) {
			t.Errorf("w=%d: %v is not ErrCanceled", workers, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("w=%d: %d tasks ran under a pre-canceled context", workers, n)
		}
	}
}

// TestForEachMidFlightCancel: canceling while tasks are in flight stops
// the stage promptly — in-flight tasks finish, queued ones never start —
// and the workers drain.
func TestForEachMidFlightCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Stage{Name: "test", Workers: 4, Ctx: ctx}.ForEach(10000, func(i int) error {
		if ran.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if !budget.IsCanceled(err) {
		t.Fatalf("%v is not ErrCanceled", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Error("cancellation did not stop the stage early")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestForEachTaskErrorBeatsCancel: a task error and a later cancellation
// must not race into a misclassified result — the lowest-index failure
// wins, per the ForEach contract.
func TestForEachTaskErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	err := Stage{Name: "test", Workers: 1}.ForEach(100, func(i int) error {
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("got %v, want the task error", err)
	}
	if budget.IsCanceled(err) {
		t.Errorf("task error misclassified as cancellation: %v", err)
	}
}

// TestMapCanceledDiscards: a canceled Map returns no partial slice.
func TestMapCanceledDiscards(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Map(Stage{Name: "test", Workers: 4, Ctx: ctx}, 100, func(i int) (int, error) {
		return i, nil
	})
	if !budget.IsCanceled(err) {
		t.Fatalf("%v is not ErrCanceled", err)
	}
	if out != nil {
		t.Errorf("partial results escaped: %v", out)
	}
}
