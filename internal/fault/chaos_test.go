package fault_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"statcube/internal/budget"
	"statcube/internal/cube"
	"statcube/internal/fault"
	"statcube/internal/parallel"
	"statcube/internal/snapshot"
)

// The chaos suite is the tentpole's closing argument: under randomized
// (but seeded, hence reproducible) fault injection at every registered
// hook point, each engine operation must end in exactly one of two
// states — the byte-identical correct result, or a clean typed error —
// and the process-wide invariants must hold afterwards: the budget
// ledger drains to zero, no half-registered materialized set escapes,
// and no corrupt snapshot is ever readable.
//
// Seeds come from a fixed matrix plus the CHAOS_SEED environment
// variable (the CI chaos job runs one seed per matrix entry); a failure
// message always names the seed, so any run is replayable locally with
//
//	CHAOS_SEED=<seed> go test -race -run Chaos ./internal/fault/

// chaosSeeds returns the seed matrix: CHAOS_SEED if set, else defaults.
func chaosSeeds(t *testing.T) []uint64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		return []uint64{seed}
	}
	return []uint64{1, 7, 42}
}

// typedErr reports whether err belongs to the engine's error taxonomy —
// the complete set of failures a query is allowed to surface.
func typedErr(err error) bool {
	return errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, parallel.ErrWorkerPanic) ||
		errors.Is(err, budget.ErrBudgetExceeded) ||
		errors.Is(err, budget.ErrCanceled) ||
		errors.Is(err, snapshot.ErrCorrupt) ||
		errors.Is(err, snapshot.ErrNotFound)
}

// identicalAnswers reports whether two view answers hold the same keys
// with bit-identical sums.
func identicalAnswers(a, b map[uint64]float64) bool {
	return maps.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// chaosInput builds the deterministic fact table every chaos run uses.
func chaosInput(t *testing.T) *cube.Input {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	in := &cube.Input{Card: []int{5, 4, 3, 2}}
	for i := 0; i < 2000; i++ {
		in.Rows = append(in.Rows, []int{rng.Intn(5), rng.Intn(4), rng.Intn(3), rng.Intn(2)})
		in.Vals = append(in.Vals, rng.NormFloat64()*100)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestChaosBuilders: cube builds under error- and panic-mode injection
// at the view and task hooks either reproduce the fault-free cube bit
// for bit or fail with a typed error, and the governor's byte ledger is
// empty after every attempt.
func TestChaosBuilders(t *testing.T) {
	in := chaosInput(t)
	builders := map[string]func(context.Context, *cube.Input, cube.Options) (*cube.Views, error){
		"rolap_naive": cube.BuildROLAPNaiveCtx,
		"rolap_sp":    cube.BuildROLAPSmallestParentCtx,
		"molap":       cube.BuildMOLAPCtx,
	}
	// Bit-identity holds per algorithm (different builders order their
	// float additions differently), so each is judged against its own
	// fault-free baseline.
	baselines := map[string]*cube.Views{}
	for name, build := range builders {
		b, err := build(context.Background(), in, cube.Options{})
		if err != nil {
			t.Fatal(err)
		}
		baselines[name] = b
	}
	points := []string{fault.PointCubeView, fault.PointParallelTask}
	for _, seed := range chaosSeeds(t) {
		for round := 0; round < 8; round++ {
			// Panic-mode rounds stay on hooks under the worker boundary:
			// panic containment is a property of workers, not of every
			// call site (recover() elsewhere is banned by statlint).
			mode := fault.Error
			if round%2 == 1 {
				mode = fault.Panic
			}
			sched := fault.Schedule{
				Seed:   seed + uint64(round)*1000,
				Points: points,
				Rate:   0.02 * float64(round+1) / 8,
				Mode:   mode,
			}
			for name, build := range builders {
				gov := budget.NewGovernor(budget.Limits{MaxBytes: 1 << 30})
				ctx := budget.WithGovernor(context.Background(), gov)
				ctx = fault.WithInjector(ctx, fault.New(sched))
				v, err := build(ctx, in, cube.Options{})
				tag := fmt.Sprintf("seed=%d round=%d builder=%s", seed, round, name)
				switch {
				case err == nil:
					if !baselines[name].Identical(v) {
						t.Fatalf("%s: survived injection but produced a different cube", tag)
					}
				case !typedErr(err):
					t.Fatalf("%s: untyped error escaped: %v", tag, err)
				case v != nil:
					t.Fatalf("%s: partial Views returned alongside error %v", tag, err)
				}
				if r := gov.BytesReserved(); r != 0 {
					t.Fatalf("%s: ledger holds %d bytes after the build returned", tag, r)
				}
			}
		}
	}
}

// TestChaosMaterialize: a materialized set under injection is all or
// nothing — on success it answers every view identically to the
// fault-free set, on failure nothing is registered.
func TestChaosMaterialize(t *testing.T) {
	in := chaosInput(t)
	masks := []int{0b0011, 0b0101, 0b1000}
	clean, err := cube.MaterializeCtx(context.Background(), in, masks)
	if err != nil {
		t.Fatal(err)
	}
	nviews := 1 << len(in.Card)
	for _, seed := range chaosSeeds(t) {
		for round := 0; round < 10; round++ {
			sched := fault.Schedule{
				Seed:   seed + uint64(round)*77,
				Points: []string{fault.PointCubeView},
				Rate:   0.15,
				Mode:   fault.Error,
			}
			gov := budget.NewGovernor(budget.Limits{MaxBytes: 1 << 30})
			ctx := budget.WithGovernor(context.Background(), gov)
			ctx = fault.WithInjector(ctx, fault.New(sched))
			m, err := cube.MaterializeCtx(ctx, in, masks)
			tag := fmt.Sprintf("seed=%d round=%d", seed, round)
			switch {
			case err == nil:
				for mask := 0; mask < nviews; mask++ {
					a, _, err := clean.Answer(mask)
					if err != nil {
						t.Fatal(err)
					}
					b, _, err := m.Answer(mask)
					if err != nil {
						t.Fatalf("%s: mask %b unanswerable after chaos build: %v", tag, mask, err)
					}
					if !identicalAnswers(a, b) {
						t.Fatalf("%s: mask %b answer differs", tag, mask)
					}
				}
			case !typedErr(err):
				t.Fatalf("%s: untyped error: %v", tag, err)
			case m != nil:
				t.Fatalf("%s: half-registered MaterializedSet escaped with %v", tag, err)
			}
			if r := gov.BytesReserved(); r != 0 {
				t.Fatalf("%s: ledger holds %d bytes", tag, r)
			}
		}
	}
}

// TestChaosSnapshots: saves under torn-write, bit-flip and error
// injection followed by loads never yield a wrong cube. Every load
// either recovers a byte-identical copy of the (single) cube ever saved,
// or fails with a typed error — corrupt bytes are detected, not served.
func TestChaosSnapshots(t *testing.T) {
	in := chaosInput(t)
	baseline, err := cube.BuildROLAPNaiveCtx(context.Background(), in, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	modes := []fault.Mode{fault.Error, fault.ShortWrite, fault.BitFlip}
	for _, seed := range chaosSeeds(t) {
		st, err := snapshot.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.Keep = 100 // keep everything: recovery may need to dig deep
		for round := 0; round < 12; round++ {
			sched := fault.Schedule{
				Seed:   seed*31 + uint64(round),
				Points: []string{fault.PointSnapshotWrite, fault.PointSnapshotSection, fault.PointSnapshotRename},
				Rate:   0.3,
				Mode:   modes[round%len(modes)],
			}
			ctx := fault.WithInjector(context.Background(), fault.New(sched))
			_, saveErr := cube.SaveViews(ctx, st, "chaos", baseline)
			if saveErr != nil && !typedErr(saveErr) {
				t.Fatalf("seed=%d round=%d: untyped save error: %v", seed, round, saveErr)
			}
			got, _, loadErr := cube.LoadViews(context.Background(), st, "chaos")
			switch {
			case loadErr == nil:
				if !baseline.Identical(got) {
					t.Fatalf("seed=%d round=%d: load served a cube that was never saved", seed, round)
				}
			case !typedErr(loadErr):
				t.Fatalf("seed=%d round=%d: untyped load error: %v", seed, round, loadErr)
			}
		}
		// With injection off, the store must settle: either at least one
		// good generation loads clean, or everything on disk is corrupt
		// and says so.
		got, _, err := cube.LoadViews(context.Background(), st, "chaos")
		if err == nil {
			if !baseline.Identical(got) {
				t.Fatalf("seed=%d: final load differs from the only cube ever saved", seed)
			}
		} else if !typedErr(err) {
			t.Fatalf("seed=%d: untyped final load error: %v", seed, err)
		}
	}
}

// TestChaosLoadChargesLedger: chaotic loads under a tight budget leak
// nothing — whether the load succeeds, hits the quota, or trips over
// corruption, the byte ledger returns to zero.
func TestChaosLoadChargesLedger(t *testing.T) {
	in := chaosInput(t)
	baseline, err := cube.BuildROLAPNaiveCtx(context.Background(), in, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.SaveViews(context.Background(), st, "cube", baseline); err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds(t) {
		for _, maxBytes := range []int64{1, 1 << 10, 1 << 16, 1 << 30} {
			gov := budget.NewGovernor(budget.Limits{MaxBytes: maxBytes})
			ctx := budget.WithGovernor(context.Background(), gov)
			ctx = fault.WithInjector(ctx, fault.New(fault.Schedule{
				Seed: seed, Points: []string{fault.PointSnapshotRead}, Rate: 0.2, Mode: fault.Error,
			}))
			v, _, err := cube.LoadViews(ctx, st, "cube")
			if err == nil {
				if !baseline.Identical(v) {
					t.Fatalf("seed=%d max=%d: wrong cube", seed, maxBytes)
				}
			} else if !typedErr(err) {
				t.Fatalf("seed=%d max=%d: untyped error: %v", seed, maxBytes, err)
			}
			if r := gov.BytesReserved(); r != 0 {
				t.Fatalf("seed=%d max=%d: %d bytes leaked", seed, maxBytes, r)
			}
		}
	}
}

// TestChaosEncodeDeterminism: whatever faults were injected on earlier
// attempts, a clean encode of the same cube is byte-identical every time
// — injection must never perturb engine state it didn't touch.
func TestChaosEncodeDeterminism(t *testing.T) {
	in := chaosInput(t)
	v, err := cube.BuildROLAPNaiveCtx(context.Background(), in, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := cube.EncodeViews(context.Background(), &want, v); err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds(t) {
		inj := fault.New(fault.Schedule{Seed: seed, Rate: 1, Mode: fault.Error, MaxInjections: 2,
			Points: []string{fault.PointSnapshotSection}})
		ctx := fault.WithInjector(context.Background(), inj)
		var scratch bytes.Buffer
		if err := cube.EncodeViews(ctx, &scratch, v); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("seed=%d: err = %v, want ErrInjected", seed, err)
		}
		var clean bytes.Buffer
		if err := cube.EncodeViews(context.Background(), &clean, v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(clean.Bytes(), want.Bytes()) {
			t.Fatalf("seed=%d: clean encode after a faulted one differs", seed)
		}
	}
}
