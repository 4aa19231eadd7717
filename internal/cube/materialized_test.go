package cube

import (
	"bytes"
	"context"
	"testing"
)

func TestMaterializeAnswersMatchDirectComputation(t *testing.T) {
	in := randomInput([]int{5, 4, 3}, 400, 21)
	truth, err := BuildROLAPNaiveCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MaterializeCtx(context.Background(), in, []int{0b011, 0b101})
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 8; mask++ {
		got, _, err := ms.Answer(mask)
		if err != nil {
			t.Fatal(err)
		}
		want := truth.View(mask)
		if len(got) != len(want) {
			t.Fatalf("mask %b: %d entries, want %d", mask, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("mask %b key %d: %v, want %v", mask, k, got[k], v)
			}
		}
	}
}

func TestMaterializedCostModel(t *testing.T) {
	in := randomInput([]int{10, 10, 10}, 2000, 22)
	// Without extra views every non-base query scans the base cuboid.
	bare, err := MaterializeCtx(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, costBare, err := bare.Answer(0b001)
	if err != nil {
		t.Fatal(err)
	}
	baseEntries := bare.Entries() // only the base cuboid is stored
	if costBare != baseEntries {
		t.Errorf("bare cost = %d, want base size %d", costBare, baseEntries)
	}
	// Materializing (a,b) makes the (a) query cheaper.
	rich, err := MaterializeCtx(context.Background(), in, []int{0b011})
	if err != nil {
		t.Fatal(err)
	}
	_, costRich, err := rich.Answer(0b001)
	if err != nil {
		t.Fatal(err)
	}
	if costRich >= costBare {
		t.Errorf("materialized parent did not reduce cost: %d vs %d", costRich, costBare)
	}
	// Answering a materialized view is free.
	_, cost, err := rich.Answer(0b011)
	if err != nil || cost != 0 {
		t.Errorf("stored view cost = %d, %v", cost, err)
	}
	// Accounting accumulates.
	if rich.ScanCost() != costRich {
		t.Errorf("ScanCost = %d, want %d", rich.ScanCost(), costRich)
	}
	if rich.StorageEntries() == 0 {
		t.Error("materialized view not counted in storage")
	}
	masks := rich.MaterializedMasks()
	if len(masks) != 2 || masks[0] != 0b011 || masks[1] != 0b111 {
		t.Errorf("MaterializedMasks = %v", masks)
	}
}

func TestMaterializeValidation(t *testing.T) {
	in := randomInput([]int{2, 2}, 10, 23)
	if _, err := MaterializeCtx(context.Background(), in, []int{99}); err == nil {
		t.Error("out-of-range mask should fail")
	}
	bad := &Input{Card: []int{2}, Rows: [][]int{{0}}, Vals: []float64{1, 2}}
	if _, err := MaterializeCtx(context.Background(), bad, nil); err == nil {
		t.Error("invalid input should fail")
	}
	ms, err := MaterializeCtx(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ms.Answer(-1); err == nil {
		t.Error("negative mask should fail")
	}
}

func TestMaterializeGreedyIntegration(t *testing.T) {
	// End-to-end: pick views with the greedy algorithm, materialize them,
	// and verify total answering cost drops accordingly.
	in := randomInput([]int{20, 10, 5}, 5000, 24)
	lat, err := NewLattice([]string{"a", "b", "c"}, in.Card, int64(len(in.Rows)))
	if err != nil {
		t.Fatal(err)
	}
	chosen, _ := lat.GreedySelect(2)
	bare, _ := MaterializeCtx(context.Background(), in, nil)
	rich, _ := MaterializeCtx(context.Background(), in, chosen)
	var costBare, costRich int64
	for mask := 0; mask < 8; mask++ {
		_, c1, err := bare.Answer(mask)
		if err != nil {
			t.Fatal(err)
		}
		_, c2, err := rich.Answer(mask)
		if err != nil {
			t.Fatal(err)
		}
		costBare += c1
		costRich += c2
	}
	if costRich >= costBare {
		t.Errorf("greedy views did not reduce answering cost: %d vs %d", costRich, costBare)
	}
}

func TestAppendRowsIncrementalUpdate(t *testing.T) {
	in := randomInput([]int{4, 3, 2}, 200, 25)
	ms, err := MaterializeCtx(context.Background(), in, []int{0b011, 0b100})
	if err != nil {
		t.Fatal(err)
	}
	// New day's facts.
	delta := randomInput([]int{4, 3, 2}, 50, 26)
	touched, err := ms.AppendRowsCtx(context.Background(), delta.Rows, delta.Vals)
	if err != nil {
		t.Fatal(err)
	}
	if touched == 0 {
		t.Fatal("no entries touched")
	}
	// Ground truth: rematerialize from the combined input.
	combined := &Input{Card: in.Card}
	combined.Rows = append(append([][]int{}, in.Rows...), delta.Rows...)
	combined.Vals = append(append([]float64{}, in.Vals...), delta.Vals...)
	truth, err := BuildROLAPNaiveCtx(context.Background(), combined, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 8; mask++ {
		got, _, err := ms.Answer(mask)
		if err != nil {
			t.Fatal(err)
		}
		want := truth.View(mask)
		if len(got) != len(want) {
			t.Fatalf("mask %b: %d entries, want %d", mask, len(got), len(want))
		}
		for k, v := range want {
			d := got[k] - v
			if d < -1e-9 || d > 1e-9 {
				t.Fatalf("mask %b key %d: %v, want %v", mask, k, got[k], v)
			}
		}
	}
}

func TestAppendRowsValidation(t *testing.T) {
	in := randomInput([]int{2, 2}, 10, 27)
	ms, _ := MaterializeCtx(context.Background(), in, nil)
	if _, err := ms.AppendRowsCtx(context.Background(), [][]int{{0, 0}}, nil); err == nil {
		t.Error("row/val mismatch should fail")
	}
	if _, err := ms.AppendRowsCtx(context.Background(), [][]int{{0}}, []float64{1}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := ms.AppendRowsCtx(context.Background(), [][]int{{0, 9}}, []float64{1}); err == nil {
		t.Error("out-of-range code should fail")
	}
}

// tiedInput is a dense cube whose two-dimensional views all hold the same
// number of entries, with values whose float sums depend on addition
// order — the shape on which an ancestor picked by map iteration order
// shows up as differing low-order bits.
func tiedInput() *Input {
	in := &Input{Card: []int{6, 6, 6}}
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			for c := 0; c < 6; c++ {
				in.Rows = append(in.Rows, []int{a, b, c})
				in.Vals = append(in.Vals, 1/float64(1+a+7*b+49*c))
			}
		}
	}
	return in
}

// TestTiedAncestorsDeterministic: when stored ancestors tie on entry
// count the lowest mask serves, every time — answers and snapshot bytes
// never vary run to run.
func TestTiedAncestorsDeterministic(t *testing.T) {
	in := tiedInput()
	var first map[uint64]float64
	for run := 0; run < 200; run++ {
		ms, err := MaterializeCtx(context.Background(), in, []int{0b011, 0b101, 0b110})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ms.Answer(0b001)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		}
		if !identicalAnswers(first, got) {
			t.Fatalf("run %d: Answer(001) differs in float bits from run 0", run)
		}
	}
	var golden []byte
	for run := 0; run < 50; run++ {
		ms, err := MaterializeCtx(context.Background(), in, []int{0b011, 0b101, 0b001})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeMaterialized(context.Background(), &buf, ms); err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = buf.Bytes()
		} else if !bytes.Equal(golden, buf.Bytes()) {
			t.Fatalf("run %d: EncodeMaterialized bytes differ from run 0", run)
		}
	}
}
