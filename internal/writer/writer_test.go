package writer_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"statcube/internal/cube"
	"statcube/internal/fault"
	"statcube/internal/snapshot"
	"statcube/internal/writer"
)

// testInput builds a small deterministic fact table.
func testInput(t *testing.T, n int, seed int64) *cube.Input {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := &cube.Input{Card: []int{4, 3, 2}}
	for i := 0; i < n; i++ {
		in.Rows = append(in.Rows, []int{rng.Intn(4), rng.Intn(3), rng.Intn(2)})
		in.Vals = append(in.Vals, float64(rng.Intn(1000)))
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

// batch cuts n rows from the same deterministic stream.
func batch(rng *rand.Rand, n int) ([][]int, []float64) {
	rows := make([][]int, n)
	vals := make([]float64, n)
	for i := range rows {
		rows[i] = []int{rng.Intn(4), rng.Intn(3), rng.Intn(2)}
		vals[i] = float64(rng.Intn(1000))
	}
	return rows, vals
}

// openTestWriter opens a writer over a fresh store in a temp dir.
func openTestWriter(t *testing.T, cfg writer.Config) (*writer.Writer, *snapshot.Store) {
	t.Helper()
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	if cfg.Name == "" {
		cfg.Name = "facts"
	}
	w, err := writer.Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, st
}

// TestOpenSeedsEmptyStore: an empty store materializes Base, publishes
// it as generation 1, and a reopened writer recovers it.
func TestOpenSeedsEmptyStore(t *testing.T) {
	ctx := context.Background()
	in := testInput(t, 500, 1)
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := writer.Open(ctx, writer.Config{Store: st, Name: "facts", Base: in, Masks: []int{0b011, 0b100}})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Generation(); got != 1 {
		t.Fatalf("generation = %d, want 1", got)
	}
	want, err := cube.MaterializeCtx(context.Background(), in, []int{0b011, 0b100})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Acquire()
	if !h.Set().Identical(want) {
		t.Fatal("opened set differs from direct materialization")
	}
	h.Release()
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Reopen: the stored generation is authoritative; Base is ignored.
	w2, err := writer.Open(ctx, writer.Config{Store: st, Name: "facts", Card: in.Card})
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.Generation(); got != 1 {
		t.Fatalf("reopened generation = %d, want 1", got)
	}
	h2 := w2.Acquire()
	defer h2.Release()
	if !h2.Set().Identical(want) {
		t.Fatal("reopened set differs from saved one")
	}
}

// TestAppendFlushMatchesRematerialization: deltas folded by the write
// path produce exactly the set a from-scratch materialization of
// base+appends produces — [RKR97]'s equivalence, bit for bit.
func TestAppendFlushMatchesRematerialization(t *testing.T) {
	ctx := context.Background()
	in := testInput(t, 500, 2)
	masks := []int{0b001, 0b110}
	w, _ := openTestWriter(t, writer.Config{Base: in, Masks: masks})

	all := &cube.Input{Card: in.Card}
	all.Rows = append(all.Rows, in.Rows...)
	all.Vals = append(all.Vals, in.Vals...)
	rng := rand.New(rand.NewSource(3))
	for load := 0; load < 4; load++ {
		rows, vals := batch(rng, 100)
		if err := w.Append(ctx, rows, vals); err != nil {
			t.Fatal(err)
		}
		gen, err := w.Flush(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(load + 2); gen != want {
			t.Fatalf("load %d published generation %d, want %d", load, gen, want)
		}
		all.Rows = append(all.Rows, rows...)
		all.Vals = append(all.Vals, vals...)
	}
	want, err := cube.MaterializeCtx(context.Background(), all, masks)
	if err != nil {
		t.Fatal(err)
	}
	h := w.Acquire()
	defer h.Release()
	if !h.Set().Identical(want) {
		t.Fatal("delta-maintained set differs from full rematerialization")
	}
	st := w.Status()
	if st.Loads != 4 || st.AbortedLoads != 0 || st.Retries != 0 {
		t.Fatalf("status = %+v, want 4 clean loads", st)
	}
	if st.DeltaCells == 0 {
		t.Fatal("status reports zero delta cells after 4 loads")
	}
}

// TestAppendValidation: bad rows are refused before any load attempt —
// nothing published, nothing retried.
func TestAppendValidation(t *testing.T) {
	ctx := context.Background()
	w, _ := openTestWriter(t, writer.Config{Card: []int{4, 3, 2}})
	if err := w.Append(ctx, [][]int{{9, 0, 0}}, []float64{1}); err == nil {
		t.Fatal("out-of-range code accepted")
	}
	if err := w.Append(ctx, [][]int{{1, 0}}, []float64{1}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := w.Append(ctx, [][]int{{1, 0, 0}}, nil); err == nil {
		t.Fatal("row without a value accepted")
	}
	if st := w.Status(); st.Generation != 1 || st.AbortedLoads != 0 || st.Retries != 0 {
		t.Fatalf("status = %+v after refused appends, want generation 1 and no load attempts", st)
	}
}

// TestAppendKeepsNoCallerSlice: the caller's slices stay the caller's —
// rewriting them after Append returns changes no published cell.
func TestAppendKeepsNoCallerSlice(t *testing.T) {
	ctx := context.Background()
	in := testInput(t, 100, 4)
	masks := []int{0b011}
	w, st := openTestWriter(t, writer.Config{Base: in, Masks: masks})
	rows, vals := batch(rand.New(rand.NewSource(5)), 30)
	want, err := cube.MaterializeCtx(ctx, in, masks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := want.AppendRowsCtx(ctx, rows, vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ctx, rows, vals); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i][0], rows[i][1], vals[i] = 3-rows[i][0], 2-rows[i][1], -vals[i]
	}
	h := w.Acquire()
	defer h.Release()
	if h.Generation() != 2 || !h.Set().Identical(want) {
		t.Fatalf("generation %d after rewriting the appended slices: the published set changed", h.Generation())
	}
	if loaded, gen, err := cube.LoadMaterialized(ctx, st, "facts"); err != nil || gen != 2 || !loaded.Identical(want) {
		t.Fatalf("store holds generation %d (err %v), or a set that is not the appended batch's", gen, err)
	}
}

// TestMVCCHandleIsolation: a handle acquired before a load keeps
// answering from its pinned generation; a handle acquired after sees
// the new one. The old generation's snapshot file survives pruning
// until the handle releases.
func TestMVCCHandleIsolation(t *testing.T) {
	ctx := context.Background()
	in := testInput(t, 200, 6)
	base := 0b111
	w, st := openTestWriter(t, writer.Config{Base: in, Masks: []int{0b011}})

	old := w.Acquire()
	defer old.Release()
	oldView, _, err := old.Answer(base)
	if err != nil {
		t.Fatal(err)
	}
	oldSum := 0.0
	for _, v := range oldView {
		oldSum += v
	}

	rng := rand.New(rand.NewSource(7))
	// Publish enough generations that default pruning (Keep=2) would
	// sweep generation 1 were it not pinned by the old handle.
	for load := 0; load < 4; load++ {
		rows, vals := batch(rng, 50)
		if err := w.Append(ctx, rows, vals); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	view, _, err := old.Answer(base)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range view {
		sum += v
	}
	if sum != oldSum {
		t.Fatalf("pinned handle's base sum changed across publishes: %v -> %v", oldSum, sum)
	}
	if old.Generation() != 1 {
		t.Fatalf("old handle generation = %d, want 1", old.Generation())
	}

	fresh := w.Acquire()
	defer fresh.Release()
	if fresh.Generation() != 5 {
		t.Fatalf("fresh handle generation = %d, want 5", fresh.Generation())
	}

	// Pinned generation 1 must still be on disk; after release it is
	// swept by the next checkpoint. Each 50-row batch's record outgrows
	// this small cube's checkpoint, so every load above wrote one, and
	// the publish below writes the next.
	gens, err := st.Generations("facts")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 || gens[0] != 1 {
		t.Fatalf("generations = %v, want pinned generation 1 retained", gens)
	}
	old.Release()
	old.Release() // idempotent
	rows, vals := batch(rng, 50)
	if err := w.Append(ctx, rows, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	gens, err = st.Generations("facts")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		if g == 1 {
			t.Fatalf("generations = %v: released generation 1 survived pruning", gens)
		}
	}
}

// appendBatch is a client's whole append: Append, then Flush for the
// generation the batch was published as.
func appendBatch(ctx context.Context, w *writer.Writer, rows [][]int, vals []float64) (uint64, error) {
	if err := w.Append(ctx, rows, vals); err != nil {
		return 0, err
	}
	return w.Flush(ctx)
}

// TestFailedAppendNeverPublished: an append whose every attempt fails
// answers the error and leaves nothing behind — no generation, no log
// record, no row held for later. The next append publishes its own
// batch alone, in memory and in the store.
func TestFailedAppendNeverPublished(t *testing.T) {
	in := testInput(t, 100, 8)
	w, store := openTestWriter(t, writer.Config{Base: in, MaxRetries: 2, Backoff: time.Nanosecond})
	before := w.Acquire()
	defer before.Release()

	inj := fault.New(fault.Schedule{Seed: 9, Points: []string{fault.PointWriterPublish}, Rate: 1, Mode: fault.Error})
	ctx := fault.WithInjector(context.Background(), inj)
	rng := rand.New(rand.NewSource(9))
	rows, vals := batch(rng, 30)
	if _, err := appendBatch(ctx, w, rows, vals); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if got := w.Generation(); got != 1 {
		t.Fatalf("generation = %d after failed load, want 1", got)
	}
	st := w.Status()
	if st.AbortedLoads != 3 || st.Retries != 2 {
		t.Fatalf("status = %+v, want 3 aborted attempts, 2 retries", st)
	}
	if st.LastError == "" {
		t.Fatal("status.LastError empty after failed load")
	}
	// Each publish-window fault withdrew the record its attempt had
	// logged, so the store holds no trace of the batch.
	if loaded, gen, err := cube.LoadMaterialized(context.Background(), store, "facts"); err != nil || gen != 1 || !loaded.Identical(before.Set()) {
		t.Fatalf("store after failed loads: generation %d, err %v; want generation 1 unchanged", gen, err)
	}

	// A different batch, fault-free: generation 2 holds it and nothing
	// of the refused one.
	rows2, vals2 := batch(rng, 20)
	if gen, err := appendBatch(context.Background(), w, rows2, vals2); err != nil || gen != 2 {
		t.Fatalf("second append = (%d, %v), want (2, nil)", gen, err)
	}
	want := before.Set().Clone()
	if _, err := want.AppendRowsCtx(context.Background(), rows2, vals2); err != nil {
		t.Fatal(err)
	}
	h := w.Acquire()
	defer h.Release()
	if h.Generation() != 2 || !h.Set().Identical(want) {
		t.Fatalf("generation %d: the published set is not the base plus the second batch alone", h.Generation())
	}
	if loaded, lgen, err := cube.LoadMaterialized(context.Background(), store, "facts"); err != nil || lgen != 2 || !loaded.Identical(want) {
		t.Fatalf("store after the second append: generation %d, err %v; want generation 2 holding the second batch alone", lgen, err)
	}
	if w.Status().LastError != "" {
		t.Fatal("status.LastError not cleared by successful load")
	}
}

// TestFlushDoesNotRetryCancellation: the caller's canceled context is
// not an environmental failure — one attempt, no backoff loop, nothing
// published.
func TestFlushDoesNotRetryCancellation(t *testing.T) {
	w, _ := openTestWriter(t, writer.Config{Card: []int{4, 3, 2}, MaxRetries: 5, Backoff: time.Nanosecond})
	rng := rand.New(rand.NewSource(10))
	rows, vals := batch(rng, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Append(ctx, rows, vals); err == nil {
		t.Fatal("append on canceled context succeeded")
	}
	if st := w.Status(); st.Retries != 0 || st.Generation != 1 {
		t.Fatalf("status = %+v for a canceled append, want no retries and generation 1", st)
	}
}

// TestEmptyFlushIsNoop: an empty append and a flush publish nothing;
// the flush answers the current generation.
func TestEmptyFlushIsNoop(t *testing.T) {
	w, st := openTestWriter(t, writer.Config{Card: []int{4, 3, 2}})
	if err := w.Append(context.Background(), nil, nil); err != nil {
		t.Fatalf("empty append = %v", err)
	}
	gen, err := w.Flush(context.Background())
	if err != nil || gen != 1 {
		t.Fatalf("empty flush = (%d, %v), want (1, nil)", gen, err)
	}
	gens, err := st.Generations("facts")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("generations = %v after empty flush, want just the seed", gens)
	}
}

// TestOnPublishCallback: every published generation fires the hook in
// order — the serving layer's live cache-invalidation contract.
func TestOnPublishCallback(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	var got []uint64
	w, _ := openTestWriter(t, writer.Config{
		Card:      []int{4, 3, 2},
		OnPublish: func(gen uint64) { mu.Lock(); got = append(got, gen); mu.Unlock() },
	})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3; i++ {
		rows, vals := batch(rng, 20)
		if err := w.Append(ctx, rows, vals); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("OnPublish generations = %v, want [2 3 4]", got)
	}
}

// TestMemoryOnlyWriter: a store-less writer is still a correct MVCC
// writer — generations count up in memory, handles pin by reference.
func TestMemoryOnlyWriter(t *testing.T) {
	ctx := context.Background()
	in := testInput(t, 100, 12)
	w, err := writer.Open(ctx, writer.Config{Base: in, Masks: []int{0b001}})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Acquire()
	defer h.Release()
	rng := rand.New(rand.NewSource(12))
	rows, vals := batch(rng, 40)
	if err := w.Append(ctx, rows, vals); err != nil {
		t.Fatal(err)
	}
	gen, err := w.Flush(ctx)
	if err != nil || gen != 2 {
		t.Fatalf("flush = (%d, %v), want (2, nil)", gen, err)
	}
	if h.Generation() != 1 {
		t.Fatalf("old handle generation = %d, want 1", h.Generation())
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersDuringSustainedAppends: readers acquire, answer
// and release continuously while the writer publishes load after load.
// Every reader must observe an internally consistent generation — the
// base cuboid's total equals one of the totals the load sequence
// actually published — and no reader ever errors. Run under -race this
// is also the write path's memory-model proof.
func TestConcurrentReadersDuringSustainedAppends(t *testing.T) {
	ctx := context.Background()
	in := testInput(t, 200, 13)
	w, _ := openTestWriter(t, writer.Config{Base: in, Masks: []int{0b011, 0b101}})

	const loads = 20
	// Precompute the running totals each published generation must show.
	validTotals := map[float64]uint64{}
	total := 0.0
	for _, v := range in.Vals {
		total += v
	}
	validTotals[total] = 1
	rng := rand.New(rand.NewSource(13))
	batches := make([][2]interface{}, loads)
	for i := range batches {
		rows, vals := batch(rng, 25)
		batches[i] = [2]interface{}{rows, vals}
		for _, v := range vals {
			total += v
		}
		validTotals[total] = uint64(i + 2)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := w.Acquire()
				view, _, err := h.Answer(0b111)
				if err != nil {
					errs <- err
					h.Release()
					return
				}
				sum := 0.0
				for _, v := range view {
					sum += v
				}
				if wantGen, ok := validTotals[sum]; !ok {
					errs <- fmt.Errorf("reader saw base total %v matching no published load", sum)
					h.Release()
					return
				} else if wantGen != h.Generation() {
					errs <- fmt.Errorf("reader saw total of generation %d under handle generation %d", wantGen, h.Generation())
					h.Release()
					return
				}
				h.Release()
			}
		}()
	}
	for _, b := range batches {
		if err := w.Append(ctx, b[0].([][]int), b[1].([]float64)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := w.Generation(); got != loads+1 {
		t.Fatalf("generation = %d after %d loads, want %d", got, loads, loads+1)
	}
}

// TestSavedGenerationBytesMatchPublished: what a load publishes in
// memory and what the store recovers decode to identical sets — the
// durable generation IS the published one, whether it was written as a
// checkpoint or as a record in the log after one.
func TestSavedGenerationBytesMatchPublished(t *testing.T) {
	ctx := context.Background()
	in := testInput(t, 150, 14)
	w, st := openTestWriter(t, writer.Config{Base: in, Masks: []int{0b110}})
	rng := rand.New(rand.NewSource(14))
	// 60 rows: the record outgrows this small cube's checkpoint, so the
	// load also writes checkpoint 2. 5 rows: the record alone holds
	// generation 3.
	for i, n := range []int{60, 5} {
		rows, vals := batch(rng, n)
		if err := w.Append(ctx, rows, vals); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		loaded, gen, err := cube.LoadMaterialized(ctx, st, "facts")
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 2); gen != want {
			t.Fatalf("newest stored generation = %d, want %d", gen, want)
		}
		if gens, err := st.Generations("facts"); err != nil || gens[len(gens)-1] != 2 {
			t.Fatalf("checkpoints = %v (%v), want the newest at 2", gens, err)
		}
		h := w.Acquire()
		if !h.Set().Identical(loaded) {
			t.Fatal("stored generation decodes differently from the published set")
		}
		// And the encodings themselves are byte-identical: the encoder
		// sorts, so equal sets mean equal files.
		var a, b bytes.Buffer
		if err := cube.EncodeMaterialized(ctx, &a, h.Set()); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if err := cube.EncodeMaterialized(ctx, &b, loaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("published and stored sets encode to different bytes")
		}
	}
}

// TestOpenValidation: the config contract's refusals.
func TestOpenValidation(t *testing.T) {
	ctx := context.Background()
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Open(ctx, writer.Config{Store: st}); err == nil {
		t.Fatal("store without name accepted")
	}
	if _, err := writer.Open(ctx, writer.Config{}); err == nil {
		t.Fatal("no card, no base accepted")
	}
	if _, err := writer.Open(ctx, writer.Config{Base: &cube.Input{Card: []int{2, 2}}, Card: []int{2}}); err == nil {
		t.Fatal("card/base dimension mismatch accepted")
	}
}
