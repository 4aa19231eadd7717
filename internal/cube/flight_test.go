package cube

import (
	"context"
	"testing"

	"statcube/internal/budget"
	"statcube/internal/qlog"
)

// withRecorder enables the process-wide flight recorder for one test and
// restores the disabled default afterwards.
func withRecorder(t *testing.T) *qlog.Recorder {
	t.Helper()
	r := qlog.Default()
	r.Reset()
	r.SetEnabled(true)
	t.Cleanup(r.Reset)
	return r
}

func TestBuildersRecordFlights(t *testing.T) {
	r := withRecorder(t)
	in := randomInput([]int{4, 3, 5}, 200, 1)
	if _, err := BuildROLAPSmallestParentCtx(context.Background(), in, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildMOLAPCtx(context.Background(), in, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := MaterializeCtx(context.Background(), in, []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	recs := r.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("recorded %d flights, want 3: %+v", len(recs), recs)
	}
	wantKinds := []string{"cube.rolap_sp", "cube.molap", "cube.materialize"}
	for i, rec := range recs {
		if rec.Kind != wantKinds[i] {
			t.Errorf("flight %d kind = %q, want %q", i, rec.Kind, wantKinds[i])
		}
		if rec.Node != "*cube*" || rec.Outcome != qlog.OutcomeOK {
			t.Errorf("flight %d: node=%q outcome=%q", i, rec.Node, rec.Outcome)
		}
		if rec.WallNs <= 0 {
			t.Errorf("flight %d wall_ns = %d", i, rec.WallNs)
		}
	}
}

func TestMOLAPDegradeRecordedAsDegraded(t *testing.T) {
	r := withRecorder(t)
	in := randomInput([]int{10, 10, 10}, 50, 1)
	est := EstimateMOLAPBytes(in.Card)
	// A budget below the dense estimate (11³ cells × 9 B ≈ 12 KB) but ample
	// for the ROLAP fallback (at most 50 rows × 8 views × runEntryBytes =
	// 6.4 KB) forces exactly the degradation ladder.
	gov := budget.NewGovernor(budget.Limits{MaxBytes: est - 1})
	ctx := budget.WithGovernor(context.Background(), gov)
	if _, err := BuildMOLAPCtx(ctx, in, Options{}); err != nil {
		t.Fatal(err)
	}
	recs := r.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("recorded %d flights, want 2 (inner rolap_sp + outer molap): %+v", len(recs), recs)
	}
	// The inner ROLAP build completes (and records) before the MOLAP
	// wrapper records its own degraded flight.
	if recs[0].Kind != "cube.rolap_sp" || recs[0].Outcome != qlog.OutcomeOK {
		t.Errorf("inner flight = %s/%s", recs[0].Kind, recs[0].Outcome)
	}
	if recs[1].Kind != "cube.molap" || recs[1].Outcome != qlog.OutcomeDegraded {
		t.Errorf("outer flight = %s/%s, want cube.molap/degraded", recs[1].Kind, recs[1].Outcome)
	}
	if recs[1].Bytes <= 0 {
		t.Errorf("degraded flight peak bytes = %d, want > 0", recs[1].Bytes)
	}
}

func TestBudgetRefusalRecordedAsBudget(t *testing.T) {
	r := withRecorder(t)
	in := randomInput([]int{6, 6, 6}, 100, 2)
	// Too small for even the ROLAP fallback — four entries' worth, and 100
	// rows over 216 cells leave dozens in the base cuboid alone: the whole
	// build fails with the typed budget error and the flight says so.
	gov := budget.NewGovernor(budget.Limits{MaxBytes: 4 * runEntryBytes})
	ctx := budget.WithGovernor(context.Background(), gov)
	if _, err := BuildROLAPSmallestParentCtx(ctx, in, Options{}); err == nil {
		t.Fatal("expected budget refusal")
	}
	recs := r.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("recorded %d flights, want 1", len(recs))
	}
	if recs[0].Outcome != qlog.OutcomeBudget || recs[0].Error == "" {
		t.Errorf("outcome=%q error=%q, want budget", recs[0].Outcome, recs[0].Error)
	}
}
