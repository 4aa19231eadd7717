package cube

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"statcube/internal/fault"
)

// deltaShape has enough cells that a run of small loads grows each
// view's delta for a while before it packs.
var deltaShape = diffShape{card: []int{12, 10, 8}}

// centBatch draws a batch of 1–60 rows with cent values.
func centBatch(rng *rand.Rand, card []int) ([][]int, []float64) {
	rows, vals := make([][]int, 1+rng.Intn(60)), make([]float64, 0, 60)
	for i := range rows {
		rows[i] = make([]int, len(card))
		for d, c := range card {
			rows[i][d] = rng.Intn(c)
		}
		vals = append(vals, centValue(rng))
	}
	return rows, vals
}

// encodeViews is EncodeViews into a fresh buffer.
func encodeViews(t *testing.T, v *Views) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeViews(context.Background(), &buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// packedCopy is v with every view packed: the same entries, no delta.
func packedCopy(v *Views) *Views {
	c := newViews(v.Card)
	for mask, r := range v.stored {
		if r != nil {
			c.stored[mask] = r.pack()
		}
	}
	return c
}

// TestDeltaRunsMatchRowFold: a chain of writer folds that crosses several
// packs of every view but the apex is, after each load and on every mask, Identical
// to the oracle's row-by-row map fold of every row fed; its checkpoint
// bytes are those of the same set packed; and a generation taken midway
// stays Identical to what it was through the later loads and packs (the
// runs it shares are never written). Cent values make any change in the
// order of additions show in the low bits. The set starts empty, so each
// view's sums are row-order folds from +0, the oracle's own order.
func TestDeltaRunsMatchRowFold(t *testing.T) {
	ctx := context.Background()
	every := allMasks(len(deltaShape.card))
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pub, err := MaterializeCtx(ctx, &Input{Card: deltaShape.card}, every)
			if err != nil {
				t.Fatal(err)
			}
			fed := &Input{Card: deltaShape.card}
			const loads, midway = 120, 40
			var mid *MaterializedSet
			var midWant *Views
			packs := make([]int, len(every))
			withDelta := 0 // loads after which some view held a delta
			for load := 1; load <= loads; load++ {
				rows, vals := centBatch(rng, deltaShape.card)
				next := pub.Clone()
				if _, err := next.AppendRowsCtx(ctx, rows, vals); err != nil {
					t.Fatal(err)
				}
				delta := false
				for mask, r := range next.views.stored {
					if prev := pub.views.stored[mask]; len(prev.packed.keys) > 0 && &r.packed.keys[0] != &prev.packed.keys[0] {
						packs[mask]++ // a new packed run, not the shared one
					}
					delta = delta || len(r.delta.keys) > 0
				}
				if delta {
					withDelta++
				}
				pub = next
				fed.Rows, fed.Vals = append(fed.Rows, rows...), append(fed.Vals, vals...)
				want := oracleViews(fed, every)
				if !pub.views.Identical(want) {
					t.Fatalf("load %d: folded set differs from the row-by-row fold", load)
				}
				if got := encodeViews(t, pub.views); !bytes.Equal(got, encodeViews(t, packedCopy(pub.views))) || !bytes.Equal(got, encodeViews(t, want)) {
					t.Fatalf("load %d: checkpoint bytes differ from the packed set's or the oracle's", load)
				}
				if load == midway {
					mid, midWant = pub, want
				}
			}
			if !mid.views.Identical(midWant) {
				t.Fatalf("generation %d changed under %d later loads", midway, loads-midway)
			}
			// The apex holds one key: its delta of one entry never reaches
			// √(2·1·rows), so it folds without packing, as it should.
			for mask, n := range packs[1:] {
				if n < 3 {
					t.Fatalf("view %03b packed %d times in %d loads; the chain must cross several packs", mask+1, n, loads)
				}
			}
			if withDelta < loads/2 {
				t.Fatalf("only %d of %d loads left a delta to read through", withDelta, loads)
			}
		})
	}
}

// injectorFailingHit returns an injector at writer.delta that lets n-1
// evaluations pass and fails the n-th: the first seed whose decision
// sequence does that (a seed replays its sequence exactly).
func injectorFailingHit(t *testing.T, n int) *fault.Injector {
	t.Helper()
	schedule := func(seed uint64) fault.Schedule {
		return fault.Schedule{Seed: seed, Points: []string{fault.PointWriterDelta}, Rate: 0.5, Mode: fault.Error, MaxInjections: 1}
	}
	for seed := uint64(0); seed < 1000; seed++ {
		probe := fault.New(schedule(seed))
		hit := 0
		for hit < n && probe.Hit(fault.PointWriterDelta) == nil {
			hit++
		}
		if hit == n-1 {
			return fault.New(schedule(seed))
		}
	}
	t.Fatalf("no seed below 1000 fails evaluation %d first", n)
	return nil
}

// TestAppendRowsAllOrNothing: a writer.delta fault at the third view's
// fold fails AppendRowsCtx and leaves its receiver exactly as it was —
// the same runs, the same bytes — with no view folded.
func TestAppendRowsAllOrNothing(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	set, err := MaterializeCtx(ctx, &Input{Card: deltaShape.card}, []int{0b001, 0b011, 0b101, 0b110})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // leave deltas in place
		rows, vals := centBatch(rng, deltaShape.card)
		if _, err := set.AppendRowsCtx(ctx, rows, vals); err != nil {
			t.Fatal(err)
		}
	}
	stored := append([]*view(nil), set.views.stored...)
	before := encodeViews(t, set.views)
	rows, vals := centBatch(rng, deltaShape.card)
	inj := injectorFailingHit(t, 3)
	touched, err := set.AppendRowsCtx(fault.WithInjector(ctx, inj), rows, vals)
	if !errors.Is(err, fault.ErrInjected) || inj.Injected() != 1 || touched != 0 {
		t.Fatalf("AppendRowsCtx = (%d, %v) with %d injected, want the injected fault at the third view and nothing touched", touched, err, inj.Injected())
	}
	for mask, r := range set.views.stored {
		if r != stored[mask] {
			t.Fatalf("view %03b replaced by a failed fold", mask)
		}
	}
	if !bytes.Equal(encodeViews(t, set.views), before) {
		t.Fatal("a failed fold changed the set's bytes")
	}
}
