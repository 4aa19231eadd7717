package cube

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"statcube/internal/budget"
	"statcube/internal/obs"
)

// countdownCtx cancels itself after a fixed number of Err polls — a
// deterministic way to hit a builder mid-flight, since every builder polls
// through budget.Check/Ticker.
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

// cancelInput builds a fact table big enough that every builder performs
// multiple ticks and lattice levels.
func cancelInput() *Input {
	in := &Input{Card: []int{8, 7, 6, 5}}
	for i := 0; i < 3000; i++ {
		in.Rows = append(in.Rows, []int{i % 8, (i / 3) % 7, (i / 5) % 6, (i / 7) % 5})
		in.Vals = append(in.Vals, float64(i%97)+0.25)
	}
	return in
}

// builders enumerates every cancellable cube entry point under test.
var builders = []struct {
	name  string
	build func(ctx context.Context, in *Input, opt Options) (interface{ Len() int }, error)
}{
	{"ROLAPNaive", func(ctx context.Context, in *Input, opt Options) (interface{ Len() int }, error) {
		v, err := BuildROLAPNaiveCtx(ctx, in, opt)
		return viewsLen{v}, err
	}},
	{"ROLAPSmallestParent", func(ctx context.Context, in *Input, opt Options) (interface{ Len() int }, error) {
		v, err := BuildROLAPSmallestParentCtx(ctx, in, opt)
		return viewsLen{v}, err
	}},
	{"MOLAP", func(ctx context.Context, in *Input, opt Options) (interface{ Len() int }, error) {
		v, err := BuildMOLAPCtx(ctx, in, opt)
		return viewsLen{v}, err
	}},
	{"Materialize", func(ctx context.Context, in *Input, opt Options) (interface{ Len() int }, error) {
		m, err := MaterializeCtx(ctx, in, []int{1, 3, 5})
		return matLen{m}, err
	}},
}

type viewsLen struct{ v *Views }

func (w viewsLen) Len() int {
	if w.v == nil {
		return 0
	}
	return len(w.v.stored)
}

type matLen struct{ m *MaterializedSet }

func (w matLen) Len() int {
	if w.m == nil {
		return 0
	}
	return len(w.m.MaterializedMasks())
}

// TestBuildPreCanceled: a context that is already done must abort every
// builder before it produces anything, with the full error taxonomy.
func TestBuildPreCanceled(t *testing.T) {
	in := cancelInput()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range builders {
		res, err := b.build(ctx, in, Options{})
		if err == nil {
			t.Fatalf("%s: no error from canceled context", b.name)
		}
		if !budget.IsCanceled(err) {
			t.Errorf("%s: error %v is not ErrCanceled", b.name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not unwrap to context.Canceled", b.name, err)
		}
		if errors.Is(err, budget.ErrBudgetExceeded) {
			t.Errorf("%s: cancellation misclassified as budget denial", b.name)
		}
		if res.Len() != 0 {
			t.Errorf("%s: partial result (%d views) escaped on cancellation", b.name, res.Len())
		}
	}
}

// TestBuildMidFlightCancel cancels after a growing number of context polls
// so the builders abort at many interior points — between row segments,
// views, and lattice levels. Each abort must return the typed error and no
// partial views, and leave no worker goroutines behind.
func TestBuildMidFlightCancel(t *testing.T) {
	inputs := map[string]*Input{"one segment": cancelInput(), "dense base": denseInput(t)}
	for inName, in := range inputs {
		for _, b := range builders {
			for _, workers := range []int{1, 4} {
				sawCancel := false
				for polls := 0; polls < 40; polls += 3 {
					ctx := newCountdownCtx(polls)
					res, err := b.build(ctx, in, Options{Workers: workers})
					if err == nil {
						// Ran to completion before the countdown expired —
						// legitimate once polls exceeds the builder's total.
						if res.Len() == 0 {
							t.Fatalf("%s %s(w=%d, polls=%d): success with empty result", inName, b.name, workers, polls)
						}
						continue
					}
					sawCancel = true
					if !budget.IsCanceled(err) {
						t.Fatalf("%s %s(w=%d, polls=%d): error %v is not ErrCanceled", inName, b.name, workers, polls, err)
					}
					if res.Len() != 0 {
						t.Fatalf("%s %s(w=%d, polls=%d): partial result escaped", inName, b.name, workers, polls)
					}
				}
				if !sawCancel {
					t.Errorf("%s %s(w=%d): countdown never triggered a cancellation; test lost its bite", inName, b.name, workers)
				}
			}
		}
	}
	checkGoroutinesDrain(t)
}

// TestBaseCancelMidPass: a context canceled while the smallest-parent
// builds key a dense base — after the pass's first segment of rows,
// before its second — stops the pass there, ahead of a bad row in its
// third segment: the typed error, no views, and exactly one build abort
// recorded.
func TestBaseCancelMidPass(t *testing.T) {
	in := denseInput(t)
	in.Rows[2*budget.DefaultTickEvery+5][0] = 20
	canceled := func() int64 { return obs.Default().Snapshot().Counters["cube.builds_canceled"] }
	for _, b := range builders {
		if b.name != "ROLAPSmallestParent" && b.name != "Materialize" {
			continue
		}
		before := canceled()
		res, err := b.build(newCountdownCtx(1), in, Options{})
		if !budget.IsCanceled(err) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v, want the typed cancellation", b.name, err)
		}
		if res.Len() != 0 {
			t.Errorf("%s: %d views escaped a canceled base pass", b.name, res.Len())
		}
		if got := canceled() - before; got != 1 {
			t.Errorf("%s: %d build aborts recorded, want 1", b.name, got)
		}
	}
}

// TestBuildCancelReleasesBudget: an aborted build must leave the
// governor's ledger at zero — reservations are released on every exit
// path.
func TestBuildCancelReleasesBudget(t *testing.T) {
	in := cancelInput()
	for _, b := range builders {
		gov := budget.NewGovernor(budget.Limits{})
		ctx := budget.WithGovernor(context.Background(), gov)
		cd := newCountdownCtx(1)
		cd.Context = ctx
		if _, err := b.build(cd, in, Options{}); err == nil {
			t.Fatalf("%s: expected cancellation at 1 poll", b.name)
		}
		if got := gov.BytesReserved(); got != 0 {
			t.Errorf("%s: %d bytes still reserved after abort", b.name, got)
		}
	}
}

// sparseInput is a fact table whose dense cross product dwarfs its actual
// rows — the regime where hash-map ROLAP is far cheaper than dense MOLAP,
// so a budget refusing the dense estimate can still admit the fallback.
func sparseInput() *Input {
	in := &Input{Card: []int{50, 40, 30, 20}}
	for i := 0; i < 2000; i++ {
		in.Rows = append(in.Rows, []int{(i * 7) % 50, (i * 13) % 40, (i * 11) % 30, (i * 3) % 20})
		in.Vals = append(in.Vals, float64(i%53)+0.5)
	}
	return in
}

// TestMOLAPDegradeToROLAP: a governor that cannot admit the dense-array
// estimate must downgrade the MOLAP build to smallest-parent ROLAP, record
// why on the span and in the metrics, and still produce the correct cube.
func TestMOLAPDegradeToROLAP(t *testing.T) {
	in := sparseInput()
	want, err := BuildROLAPSmallestParentCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est := EstimateMOLAPBytes(in.Card)
	if est <= 0 {
		t.Fatalf("estimate should be positive, got %d", est)
	}
	// Enough budget for the ROLAP views (at most 2000 rows × 16 views ×
	// runEntryBytes = 512 KB against a dense estimate of ~12 MB), not for
	// the dense arrays.
	gov := budget.NewGovernor(budget.Limits{MaxBytes: est - 1})
	ctx := budget.WithGovernor(context.Background(), gov)
	before := obs.Default().Snapshot().Counters["cube.molap_degraded"]
	sp := obs.NewSpan("build")
	got, err := BuildMOLAPCtx(ctx, in, Options{Span: sp})
	sp.End()
	if err != nil {
		t.Fatalf("degraded build failed: %v", err)
	}
	if !got.Identical(want) {
		t.Error("degraded build differs from the ROLAP smallest-parent cube")
	}
	after := obs.Default().Snapshot().Counters["cube.molap_degraded"]
	if after != before+1 {
		t.Errorf("cube.molap_degraded went %d -> %d, want +1", before, after)
	}
	rendered := sp.Render(obs.RenderOptions{})
	if !strings.Contains(rendered, "degrade:molap→rolap_sp") {
		t.Errorf("span tree does not show the degradation:\n%s", rendered)
	}
	if !strings.Contains(rendered, "estimated_bytes") {
		t.Errorf("span tree does not carry the refused estimate:\n%s", rendered)
	}
	if got := gov.BytesReserved(); got != 0 {
		t.Errorf("%d bytes still reserved after build handed off", got)
	}
}

// TestMOLAPBudgetTooSmallForAnything: when even the ROLAP fallback cannot
// fit, the whole build fails with ErrBudgetExceeded — not a panic, not a
// partial cube.
func TestMOLAPBudgetTooSmallForAnything(t *testing.T) {
	in := cancelInput()
	gov := budget.NewGovernor(budget.Limits{MaxBytes: runEntryBytes - 1}) // not one view entry
	ctx := budget.WithGovernor(context.Background(), gov)
	v, err := BuildMOLAPCtx(ctx, in, Options{})
	if err == nil {
		t.Fatal("no error from a budget below one view entry")
	}
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Errorf("error %v is not ErrBudgetExceeded", err)
	}
	if budget.IsCanceled(err) {
		t.Errorf("budget denial misclassified as cancellation")
	}
	if v != nil {
		t.Error("partial views escaped a denied build")
	}
}

// TestByteChargeIsTheRunsBytes: a build and a load reserve exactly
// runEntryBytes per stored entry, all views held until hand-off — the
// cube's total is admitted, one byte less is refused.
func TestByteChargeIsTheRunsBytes(t *testing.T) {
	in := cancelInput()
	v, err := BuildROLAPSmallestParentCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var entries int64
	for _, mask := range v.Masks() {
		entries += v.size(mask)
	}
	var blob bytes.Buffer
	if err := EncodeViews(context.Background(), &blob, v); err != nil {
		t.Fatal(err)
	}
	paths := map[string]func(context.Context) error{
		"build": func(ctx context.Context) error {
			_, err := BuildROLAPSmallestParentCtx(ctx, in, Options{})
			return err
		},
		"decode": func(ctx context.Context) error {
			_, err := DecodeViews(ctx, bytes.NewReader(blob.Bytes()))
			return err
		},
	}
	for name, run := range paths {
		exact := budget.NewGovernor(budget.Limits{MaxBytes: entries * runEntryBytes})
		if err := run(budget.WithGovernor(context.Background(), exact)); err != nil {
			t.Errorf("%s: %d entries refused at %d bytes: %v", name, entries, entries*runEntryBytes, err)
		}
		if peak := exact.PeakBytes(); peak != entries*runEntryBytes {
			t.Errorf("%s: peak reservation %d, want %d", name, peak, entries*runEntryBytes)
		}
		short := budget.NewGovernor(budget.Limits{MaxBytes: entries*runEntryBytes - 1})
		if err := run(budget.WithGovernor(context.Background(), short)); !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Errorf("%s: one byte short of the charge: err = %v, want ErrBudgetExceeded", name, err)
		}
	}
}

// TestCellQuota: a cell quota smaller than the cube's output must deny the
// build with the budget taxonomy.
func TestCellQuota(t *testing.T) {
	in := cancelInput()
	gov := budget.NewGovernor(budget.Limits{MaxCells: 10})
	ctx := budget.WithGovernor(context.Background(), gov)
	if _, err := BuildROLAPNaiveCtx(ctx, in, Options{}); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Errorf("cell quota not enforced: %v", err)
	}
}

// TestMaterializeCancelNoPartialRegistration: cancellation mid-materialize
// must not leak a partially-built set.
func TestMaterializeCancelNoPartialRegistration(t *testing.T) {
	in := cancelInput()
	for polls := 0; polls < 30; polls += 2 {
		m, err := MaterializeCtx(newCountdownCtx(polls), in, []int{1, 2, 3, 6, 9})
		if err != nil {
			if m != nil {
				t.Fatalf("polls=%d: partially-materialized set returned with error", polls)
			}
			if !budget.IsCanceled(err) {
				t.Fatalf("polls=%d: %v is not ErrCanceled", polls, err)
			}
		} else if len(m.MaterializedMasks()) != 6 { // base + 5 requested
			t.Fatalf("polls=%d: completed set has %v", polls, m.MaterializedMasks())
		}
	}
}

// TestCtxWrappersEquivalent: the Background-context wrappers must produce
// the same cube as the Ctx entry points.
func TestCtxWrappersEquivalent(t *testing.T) {
	in := cancelInput()
	a, err := BuildMOLAPCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildMOLAPCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Identical(b) {
		t.Error("wrapper and Ctx builds differ")
	}
}

// TestEstimateMOLAPBytes pins the telescoping-product cost model.
func TestEstimateMOLAPBytes(t *testing.T) {
	if got := EstimateMOLAPBytes(nil); got != denseCellBytes {
		t.Errorf("empty cube: got %d, want %d (the single all-view cell)", got, denseCellBytes)
	}
	// card {2,3}: views {}, {a}, {b}, {ab} have 1+2+3+6 = 12 = (2+1)(3+1) cells.
	if got, want := EstimateMOLAPBytes([]int{2, 3}), int64(12*denseCellBytes); got != want {
		t.Errorf("card {2,3}: got %d, want %d", got, want)
	}
	if got := EstimateMOLAPBytes([]int{1 << 21, 1 << 21, 1 << 21}); got != -1 {
		t.Errorf("overflowing cube: got %d, want -1", got)
	}
}

// checkGoroutinesDrain asserts the goroutine count settles back to the
// baseline after the cancellation storms above — no worker leaks.
func checkGoroutinesDrain(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		base = runtime.NumGoroutine() // tolerate unrelated runtime goroutines settling
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines did not drain:\n%s", buf[:n])
}

// TestCancellationLatencyBounded: a deadline must stop a large naive build
// long before it would complete — the segment-size bound on cancellation
// latency, stated loosely enough for CI machines.
func TestCancellationLatencyBounded(t *testing.T) {
	in := &Input{Card: []int{10, 10, 9, 8, 7}}
	for i := 0; i < 60000; i++ {
		in.Rows = append(in.Rows, []int{i % 10, (i / 3) % 10, (i / 5) % 9, (i / 7) % 8, (i / 11) % 7})
		in.Vals = append(in.Vals, float64(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := BuildROLAPNaiveCtx(ctx, in, Options{})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("machine too fast: build finished inside the deadline")
	}
	if !budget.IsCanceled(err) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error has wrong taxonomy: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; latency bound is broken", elapsed)
	}
}
