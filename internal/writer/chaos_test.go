package writer_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"statcube/internal/budget"
	"statcube/internal/cube"
	"statcube/internal/fault"
	"statcube/internal/snapshot"
	"statcube/internal/writer"
)

// The write path's chaos suite: under seeded fault injection at every
// writer hook (writer.append, writer.delta, writer.publish), the log
// append (log.write) and the snapshot hooks inside a checkpoint
// (snapshot.write, snapshot.rename), a load must end in exactly one of
// two states — published and byte-identical to its fault-free outcome,
// or failed with a typed error while the previous generation stays
// authoritative for readers and on disk. No third state: no partial
// delta visible, no torn file loadable, no acknowledged row lost, no
// refused row published, no row logged twice.
//
// Seeds come from the fixed {1, 7, 42} matrix plus CHAOS_SEED (the CI
// chaos job runs one per matrix entry); replay any failure with
//
//	CHAOS_SEED=<seed> go test -race -run Chaos ./internal/writer/

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

// writerPoints is every hook a load crosses, writer-owned and
// snapshot-owned alike.
var writerPoints = []string{
	fault.PointWriterAppend,
	fault.PointWriterDelta,
	fault.PointWriterPublish,
	fault.PointLogWrite,
	fault.PointSnapshotWrite,
	fault.PointSnapshotRename,
}

// checkpointPoint reports whether a hook fires only inside a checkpoint,
// which runs after its load has published.
func checkpointPoint(point string) bool {
	return point == fault.PointSnapshotWrite || point == fault.PointSnapshotRename
}

// batchGen generates one chaos input from a seed: the base facts and the
// load sequence every run replays.
type batchGen func(seed int64) (base *cube.Input, rows [][][]int, vals [][]float64)

// cutLoads draws 8 loads of 40 random rows over card; val draws each
// row's measure after its coordinates.
func cutLoads(rng *rand.Rand, card []int, val func() float64) (rows [][][]int, vals [][]float64) {
	for l := 0; l < 8; l++ {
		var r [][]int
		var v []float64
		for i := 0; i < 40; i++ {
			row := make([]int, len(card))
			for d, c := range card {
				row[d] = rng.Intn(c)
			}
			r = append(r, row)
			v = append(v, val())
		}
		rows = append(rows, r)
		vals = append(vals, v)
	}
	return rows, vals
}

// chaosBatches cuts the deterministic load sequence every chaos run
// replays: 8 loads of 40 rows over a 4×3×2 cube, integer-valued so sums
// are exact in any order.
func chaosBatches(seed int64) (base *cube.Input, rows [][][]int, vals [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	val := func() float64 { return float64(rng.Intn(1000)) }
	base = &cube.Input{Card: []int{4, 3, 2}}
	for i := 0; i < 300; i++ {
		base.Rows = append(base.Rows, []int{rng.Intn(4), rng.Intn(3), rng.Intn(2)})
		base.Vals = append(base.Vals, val())
	}
	rows, vals = cutLoads(rng, base.Card, val)
	return base, rows, vals
}

// tiedBatches is chaosBatches on the tied-ancestor shape: a dense 3×3×3
// base whose two-dimensional views all hold 9 entries, and fractional
// values whose sums depend on addition order — so which of two tied
// ancestors a coarser view was derived from shows in the low-order bits of
// every generation after it.
func tiedBatches(seed int64) (base *cube.Input, rows [][][]int, vals [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	val := func() float64 { return 1 / float64(1+rng.Intn(1000)) }
	base = &cube.Input{Card: []int{3, 3, 3}}
	for i := 0; i < 27; i++ {
		base.Rows = append(base.Rows, []int{i / 9, i / 3 % 3, i % 3})
		base.Vals = append(base.Vals, val())
	}
	rows, vals = cutLoads(rng, base.Card, val)
	return base, rows, vals
}

// quarteredBatches is chaosBatches with every value quartered: quarters
// of integers still add exactly in any order, and the fraction most sums
// keep holds the checkpoint's sums at 8 bytes (integer sums pack to one
// or two, see cube's packed sections), so a checkpoint outweighs the few
// short records the log cases write after it.
func quarteredBatches(seed int64) (base *cube.Input, rows [][][]int, vals [][]float64) {
	base, rows, vals = chaosBatches(seed)
	for i := range base.Vals {
		base.Vals[i] /= 4
	}
	for _, v := range vals {
		for i := range v {
			v[i] /= 4
		}
	}
	return base, rows, vals
}

// loggedBatches is quarteredBatches cut to 1-row loads: all 8 records
// together stay below the checkpoint's size, so the whole sequence lives
// in the log and the reload converges through replay alone.
func loggedBatches(seed int64) (base *cube.Input, rows [][][]int, vals [][]float64) {
	base, rows, vals = quarteredBatches(seed)
	return base, small(rows, 1), small(vals, 1)
}

// faultFreeOutcome runs the whole load sequence with no injector — the
// base materialized, each batch folded in as a delta — and returns the
// final set: the state every chaos run must converge to.
func faultFreeOutcome(t *testing.T, batches batchGen, masks []int) *cube.MaterializedSet {
	t.Helper()
	base, rows, vals := batches(99)
	want, err := cube.MaterializeCtx(context.Background(), base, masks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if _, err := want.AppendRowsCtx(context.Background(), rows[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestChaosWriterConverges: with error-mode injection at every write
// hook and unlimited retries, the load sequence converges — every
// batch eventually publishes, and the final set (in memory AND
// reloaded from disk) is bit-identical to the fault-free outcome.
func TestChaosWriterConverges(t *testing.T) {
	inputs := []struct {
		name    string
		batches batchGen
		masks   []int
	}{
		{"random", chaosBatches, []int{0b011, 0b101}},
		{"tied", tiedBatches, []int{0b011, 0b101, 0b001}},
		{"logged", loggedBatches, []int{0b011, 0b101}},
	}
	for _, in := range inputs {
		masks, batches := in.masks, in.batches
		want := faultFreeOutcome(t, batches, masks)
		for _, seed := range chaosSeeds(t) {
			for _, rate := range []float64{0.05, 0.3} {
				t.Run(fmt.Sprintf("%s/seed=%d/rate=%v", in.name, seed, rate), func(t *testing.T) {
					inj := fault.New(fault.Schedule{Seed: seed, Points: writerPoints, Rate: rate, Mode: fault.Error, MaxInjections: 40})
					ctx := fault.WithInjector(context.Background(), inj)
					st, err := snapshot.OpenStore(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					base, rows, vals := batches(99)
					// Open seeds the store fault-free (Open has no retry loop —
					// a failed open is the operator's error); the load sequence
					// then runs entirely under injection.
					w, err := writer.Open(context.Background(), writer.Config{
						Store: st, Name: "facts", Base: base, Masks: masks,
						MaxRetries: 100, Backoff: time.Nanosecond, Sleep: func(time.Duration) {},
					})
					if err != nil {
						t.Fatal(err)
					}
					for i := range rows {
						if err := w.Append(ctx, rows[i], vals[i]); err != nil {
							t.Fatalf("seed %d load %d: append did not converge: %v", seed, i, err)
						}
					}
					h := w.Acquire()
					defer h.Release()
					if !h.Set().Identical(want) {
						t.Fatalf("seed %d rate %v: converged set differs from fault-free outcome (%d injections)", seed, rate, inj.Injected())
					}
					// The durable state agrees: a restart loads the same bytes.
					loaded, _, err := cube.LoadMaterialized(context.Background(), st, "facts")
					if err != nil {
						t.Fatalf("seed %d: reload after chaos: %v", seed, err)
					}
					if !loaded.Identical(want) {
						t.Fatalf("seed %d rate %v: reloaded set differs from fault-free outcome", seed, rate)
					}
				})
			}
		}
	}
}

// TestChaosConcurrentAppends: four clients append eight batches each at
// once, under error-mode injection at every write hook and no retries.
// Each append's answer is its own batch's outcome: every acknowledged
// batch is published as a generation of its own, no refused batch is in
// any, and the final set — in memory and reopened — is the base with
// exactly the acknowledged batches folded in, in generation order.
func TestChaosConcurrentAppends(t *testing.T) {
	const clients, perClient = 4, 8
	masks := []int{0b011, 0b101}
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base, _, _ := chaosBatches(99)
			// Batch id's values are multiples of 1024 but for id added to
			// its first, so a generation's base total less its
			// predecessor's names the one batch it published.
			rng := rand.New(rand.NewSource(int64(seed)))
			rows := make([][][]int, clients*perClient)
			vals := make([][]float64, clients*perClient)
			for id := range rows {
				rows[id], vals[id] = batch(rng, 10)
				for i := range vals[id] {
					vals[id][i] *= 1024
				}
				vals[id][0] += float64(id)
			}
			st, err := snapshot.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var gens []uint64
			totals := map[uint64]float64{}
			var w *writer.Writer
			w, err = writer.Open(context.Background(), writer.Config{
				Store: st, Name: "facts", Base: base, Masks: masks,
				MaxRetries: -1, // none: one attempt per append
				OnPublish: func(gen uint64) {
					h := w.Acquire()
					defer h.Release()
					mu.Lock()
					defer mu.Unlock()
					if h.Generation() != gen {
						t.Errorf("OnPublish(%d) acquired generation %d", gen, h.Generation())
					}
					gens = append(gens, gen)
					totals[gen] = baseTotal(t, h)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			h := w.Acquire()
			totals[1] = baseTotal(t, h)
			h.Release()

			inj := fault.New(fault.Schedule{Seed: seed, Points: writerPoints, Rate: 0.1, Mode: fault.Error, MaxInjections: 16})
			ctx := fault.WithInjector(context.Background(), inj)
			errs := make([]error, len(rows))
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for id := c * perClient; id < (c+1)*perClient; id++ {
						errs[id] = w.Append(ctx, rows[id], vals[id])
					}
				}(c)
			}
			wg.Wait()

			acked := 0
			for id, err := range errs {
				if err == nil {
					acked++
				} else if !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("batch %d: append = %v, want nil or the injected fault", id, err)
				}
			}
			if inj.Injected() == 0 || acked == 0 {
				t.Fatalf("%d injections, %d acknowledged appends: the schedule tests nothing", inj.Injected(), acked)
			}
			t.Logf("%d injections, %d of %d appends acknowledged", inj.Injected(), acked, len(rows))
			// One generation per acknowledged append, each holding one
			// acknowledged batch no other generation holds.
			if len(gens) != acked || w.Generation() != uint64(acked)+1 {
				t.Fatalf("%d publishes up to generation %d for %d acknowledged appends", len(gens), w.Generation(), acked)
			}
			want, err := cube.MaterializeCtx(context.Background(), base, masks)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]bool{}
			for i, gen := range gens {
				if gen != uint64(i)+2 {
					t.Fatalf("publish %d was generation %d, want %d", i, gen, i+2)
				}
				id := int(int64(totals[gen]-totals[gen-1]) % 1024)
				if id < 0 || id >= len(rows) || errs[id] != nil || seen[id] {
					t.Fatalf("generation %d folded in batch %d, which was refused or already published", gen, id)
				}
				seen[id] = true
				if _, err := want.AppendRowsCtx(context.Background(), rows[id], vals[id]); err != nil {
					t.Fatal(err)
				}
			}
			h = w.Acquire()
			same := h.Set().Identical(want)
			h.Release()
			if !same {
				t.Fatal("published set is not the base plus the acknowledged batches")
			}
			if err := w.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			w2, err := writer.Open(context.Background(), writer.Config{Store: st, Name: "facts", Card: base.Card, Masks: masks})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close(context.Background())
			h = w2.Acquire()
			defer h.Release()
			if h.Generation() != uint64(acked)+1 || !h.Set().Identical(want) {
				t.Fatalf("reopened at generation %d (want %d), or on a set that is not the base plus the acknowledged batches", h.Generation(), acked+1)
			}
		})
	}
}

// baseTotal sums the handle's base cuboid.
func baseTotal(t *testing.T, h *cube.ReadHandle) float64 {
	view, _, err := h.Answer(1<<len(h.Set().Card()) - 1)
	if err != nil {
		t.Error(err)
	}
	total := 0.0
	for _, v := range view {
		total += v
	}
	return total
}

// TestChaosFailedLoadInvisible: a load that exhausts its retries leaves
// no trace a reader can see — the acquired handle's answers don't
// change, the published generation doesn't advance, and the store still
// reloads the previous generation. The
// snapshot.* hooks fire only in the checkpoint a load writes after it
// has published (this 40-row batch's record outgrows the small cube's
// checkpoint, so one is due): a failed checkpoint is just as invisible —
// the load stands, published once and durable in the log, no new
// checkpoint file appears, and the store reloads the published set.
func TestChaosFailedLoadInvisible(t *testing.T) {
	masks := []int{0b110}
	for _, seed := range chaosSeeds(t) {
		for _, point := range writerPoints {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, point), func(t *testing.T) {
				st, err := snapshot.OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				base, rows, vals := chaosBatches(99)
				w, err := writer.Open(context.Background(), writer.Config{
					Store: st, Name: "facts", Base: base, Masks: masks,
					MaxRetries: 1, Backoff: time.Nanosecond, Sleep: func(time.Duration) {},
				})
				if err != nil {
					t.Fatal(err)
				}
				before := w.Acquire()
				defer before.Release()
				beforeGen := w.Generation()

				// Error mode fires at Hit-style hooks; the snapshot.write
				// and log.write stream hooks also corrupt writes, so a
				// torn write is their failure shape.
				mode := fault.Error
				if point == fault.PointSnapshotWrite || point == fault.PointLogWrite {
					mode = fault.ShortWrite
				}
				inj := fault.New(fault.Schedule{Seed: seed, Points: []string{point}, Rate: 1, Mode: mode})
				ctx := fault.WithInjector(context.Background(), inj)
				if checkpointPoint(point) {
					checkpointFailureInvisible(t, w, st, before, rows[0], vals[0], ctx)
					return
				}
				if err := w.Append(ctx, rows[0], vals[0]); !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("append = %v, want injected failure", err)
				}
				if got := w.Generation(); got != beforeGen {
					t.Fatalf("generation advanced %d -> %d on a failed load", beforeGen, got)
				}
				after := w.Acquire()
				defer after.Release()
				if after.Generation() != beforeGen || !after.Set().Identical(before.Set()) {
					t.Fatal("failed load changed the reader-visible set")
				}
				// Restart-style recovery: the store's newest loadable
				// generation is still the pre-fault one. A publish-window
				// fault legitimately leaves a newer complete generation on
				// disk (durable but unpublished) — identical content either
				// way is the invariant.
				loaded, _, err := cube.LoadMaterialized(context.Background(), st, "facts")
				if err != nil {
					t.Fatal(err)
				}
				if point == fault.PointWriterPublish {
					staged := before.Set().Clone()
					if _, err := staged.AppendRowsCtx(context.Background(), rows[0], vals[0]); err != nil {
						t.Fatal(err)
					}
					if !loaded.Identical(before.Set()) && !loaded.Identical(staged) {
						t.Fatal("disk state after publish-window fault is neither the previous nor the staged generation")
					}
				} else if !loaded.Identical(before.Set()) {
					t.Fatal("disk state changed after a failed load")
				}
			})
		}
	}
}

// checkpointFailureInvisible is TestChaosFailedLoadInvisible's case for
// a hook inside the checkpoint: the append publishes the batch, the
// failed checkpoint shows only in Status, and the store reloads the
// published set through the log with no checkpoint added.
func checkpointFailureInvisible(t *testing.T, w *writer.Writer, st *snapshot.Store, before *cube.ReadHandle, rows [][]int, vals []float64, ctx context.Context) {
	t.Helper()
	ckpts, err := st.Generations("facts")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ctx, rows, vals); err != nil {
		t.Fatalf("append = %v: a failed checkpoint must not fail its published load", err)
	}
	gen := w.Generation()
	if gen != before.Generation()+1 {
		t.Fatalf("append published generation %d, want %d", gen, before.Generation()+1)
	}
	if !strings.Contains(w.Status().LastError, "checkpoint") {
		t.Fatalf("status.LastError = %q, want the checkpoint failure", w.Status().LastError)
	}
	after, err := st.Generations("facts")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(ckpts) {
		t.Fatalf("checkpoints %v -> %v after a failed checkpoint", ckpts, after)
	}
	staged := before.Set().Clone()
	if _, err := staged.AppendRowsCtx(context.Background(), rows, vals); err != nil {
		t.Fatal(err)
	}
	h := w.Acquire()
	defer h.Release()
	if !h.Set().Identical(staged) {
		t.Fatal("published set is not the previous one plus the batch")
	}
	loaded, lgen, err := cube.LoadMaterialized(context.Background(), st, "facts")
	if err != nil {
		t.Fatal(err)
	}
	if lgen != gen || !loaded.Identical(staged) {
		t.Fatalf("store reloads generation %d (want %d) or a different set after a failed checkpoint", lgen, gen)
	}
}

// TestChaosTornWrite: short-write (torn file) and bit-flip injection in
// the snapshot writer produces either a clean failure with the previous
// generation authoritative, or (for a fault the checksums catch only on
// read) a reload that recovers past the damaged generation. Every load
// is then retried fault-free and the final state must be byte-identical
// to the fault-free outcome.
func TestChaosTornWrite(t *testing.T) {
	masks := []int{0b001}
	want := faultFreeOutcome(t, chaosBatches, masks)
	for _, seed := range chaosSeeds(t) {
		for _, mode := range []fault.Mode{fault.ShortWrite, fault.BitFlip} {
			t.Run(fmt.Sprintf("seed=%d/%v", seed, mode), func(t *testing.T) {
				st, err := snapshot.OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				base, rows, vals := chaosBatches(99)
				w, err := writer.Open(context.Background(), writer.Config{
					Store: st, Name: "facts", Base: base, Masks: masks,
					MaxRetries: 0, Backoff: time.Nanosecond, Sleep: func(time.Duration) {},
				})
				if err != nil {
					t.Fatal(err)
				}
				inj := fault.New(fault.Schedule{Seed: seed, Points: []string{fault.PointSnapshotWrite}, Rate: 0.5, Mode: mode, MaxInjections: 6})
				faulty := fault.WithInjector(context.Background(), inj)
				clean := context.Background()
				for i := range rows {
					if err := w.Append(faulty, rows[i], vals[i]); err != nil {
						// Torn write detected at save time: the batch was
						// not applied, so send it again with a clean context.
						if err := w.Append(clean, rows[i], vals[i]); err != nil {
							t.Fatalf("seed %d load %d: clean retry failed: %v", seed, i, err)
						}
					}
				}
				h := w.Acquire()
				defer h.Release()
				if !h.Set().Identical(want) {
					t.Fatalf("seed %d %v: final set differs from fault-free outcome", seed, mode)
				}
				// A bit-flip can slip past the save (detected only by CRC on
				// read); recovery must still land on a generation identical
				// to some published state — here, the newest loadable one
				// must match the in-memory set or an earlier prefix is
				// recovered. Reload and require decodability.
				loaded, gen, err := cube.LoadMaterialized(clean, st, "facts")
				if err != nil {
					t.Fatalf("seed %d %v: reload: %v", seed, mode, err)
				}
				if gen == w.Generation() && !loaded.Identical(h.Set()) {
					t.Fatalf("seed %d %v: newest generation decodes to different bytes than published", seed, mode)
				}
			})
		}
	}
}

// TestChaosPanicPublishWindow: a panic-mode injection in the publish
// window (after the durable save) is the in-process stand-in for a
// crash. A fresh writer over the same store must recover to a loadable
// generation whose content is either the previous or the staged load —
// and after re-appending the unacknowledged batch, converge to the
// fault-free outcome.
func TestChaosPanicPublishWindow(t *testing.T) {
	masks := []int{0b010}
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st, err := snapshot.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			base, rows, vals := chaosBatches(99)
			w, err := writer.Open(context.Background(), writer.Config{Store: st, Name: "facts", Base: base, Masks: masks})
			if err != nil {
				t.Fatal(err)
			}
			prev := w.Acquire()
			defer prev.Release()

			inj := fault.New(fault.Schedule{Seed: seed, Points: []string{fault.PointWriterPublish}, Rate: 1, Mode: fault.Panic, MaxInjections: 1})
			ctx := fault.WithInjector(context.Background(), inj)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("publish-window panic injection did not fire")
					}
				}()
				_ = w.Append(ctx, rows[0], vals[0])
			}()

			// "Restart": a brand-new writer on the same store. It must open
			// cleanly on a checksummed generation.
			w2, err := writer.Open(context.Background(), writer.Config{Store: st, Name: "facts", Card: base.Card, Masks: masks})
			if err != nil {
				t.Fatalf("seed %d: reopen after crash: %v", seed, err)
			}
			h := w2.Acquire()
			defer h.Release()
			staged := prev.Set().Clone()
			if _, err := staged.AppendRowsCtx(context.Background(), rows[0], vals[0]); err != nil {
				t.Fatal(err)
			}
			recoveredStaged := h.Set().Identical(staged)
			if !recoveredStaged && !h.Set().Identical(prev.Set()) {
				t.Fatalf("seed %d: recovered state is neither previous nor staged generation", seed)
			}
			// The crashed load was never acknowledged; the client re-sends
			// it (idempotence is the client's ledger — here we only re-send
			// when the load didn't survive). Either way the sequence must
			// converge to the same final set.
			all := &cube.Input{Card: base.Card}
			all.Rows = append(all.Rows, base.Rows...)
			all.Vals = append(all.Vals, base.Vals...)
			for i := range rows {
				all.Rows = append(all.Rows, rows[i]...)
				all.Vals = append(all.Vals, vals[i]...)
			}
			want, err := cube.MaterializeCtx(context.Background(), all, masks)
			if err != nil {
				t.Fatal(err)
			}
			start := 0
			if recoveredStaged {
				start = 1
			}
			for i := start; i < len(rows); i++ {
				if err := w2.Append(context.Background(), rows[i], vals[i]); err != nil {
					t.Fatal(err)
				}
			}
			h2 := w2.Acquire()
			defer h2.Release()
			if !h2.Set().Identical(want) {
				t.Fatalf("seed %d: post-crash sequence did not converge to fault-free outcome", seed)
			}
		})
	}
}

// TestChaosBudgetNotRetried: a budget refusal during the delta fold is
// the caller's error — surfaced once, never retried, nothing published.
func TestChaosBudgetNotRetried(t *testing.T) {
	base, rows, vals := chaosBatches(99)
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := writer.Open(context.Background(), writer.Config{
		Store: st, Name: "facts", Base: base, Masks: []int{0b011},
		MaxRetries: 5, Backoff: time.Nanosecond, Sleep: func(time.Duration) { t.Fatal("budget refusal slept for a retry") },
	})
	if err != nil {
		t.Fatal(err)
	}
	gov := budget.NewGovernor(budget.Limits{MaxCells: 1})
	ctx := budget.WithGovernor(context.Background(), gov)
	if err := w.Append(ctx, rows[0], vals[0]); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("append = %v, want budget refusal", err)
	}
	if st := w.Status(); st.Retries != 0 || st.Generation != 1 {
		t.Fatalf("status = %+v: budget refusal must not retry or publish", st)
	}
}

// logWriter opens a writer for the log cases over a fresh store: the
// quartered chaos base and masks, no retries.
func logWriter(t *testing.T) (*writer.Writer, *snapshot.Store, [][][]int, [][]float64) {
	t.Helper()
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base, rows, vals := quarteredBatches(99)
	w, err := writer.Open(context.Background(), writer.Config{
		Store: st, Name: "facts", Base: base, Masks: []int{0b011},
		MaxRetries: -1, Backoff: time.Nanosecond, Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, st, rows, vals
}

// publish appends one batch and returns the published set.
func publish(t *testing.T, ctx context.Context, w *writer.Writer, rows [][]int, vals []float64) *cube.MaterializedSet {
	t.Helper()
	if err := w.Append(ctx, rows, vals); err != nil {
		t.Fatal(err)
	}
	h := w.Acquire()
	defer h.Release()
	return h.Set()
}

// small cuts every batch to its first n rows: such a record stays well
// below the checkpoint's size, so it lands in the log and triggers no
// checkpoint.
func small[T any](batches [][]T, n int) [][]T {
	out := make([][]T, len(batches))
	for i, b := range batches {
		out[i] = b[:n]
	}
	return out
}

// requireRecovers reloads the store and requires generation gen holding
// want.
func requireRecovers(t *testing.T, st *snapshot.Store, gen uint64, want *cube.MaterializedSet) {
	t.Helper()
	got, g, err := cube.LoadMaterialized(context.Background(), st, "facts")
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if g != gen || !got.Identical(want) {
		t.Fatalf("reload recovered generation %d (want %d), identical to its set: %v", g, gen, got.Identical(want))
	}
}

// logTail replays the store's logs from checkpoint 1 and returns the
// chain and how many records it replayed.
func logTail(t *testing.T, st *snapshot.Store) (snapshot.Chain, int) {
	t.Helper()
	n := 0
	chain, err := st.ReplayLogs("facts", 1, func(uint64, []byte) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	return chain, n
}

// TestChaosLogWrite is the log.write matrix: the commit point under a
// torn record, a flipped bit, a crash between the record's fsync and the
// publish, and a corrupt newest checkpoint. Each case ends with the
// store recovering the last generation it can prove, never a panic, and
// a writer that carries on from there.
func TestChaosLogWrite(t *testing.T) {
	clean := context.Background()
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d/short-write", seed), func(t *testing.T) {
			w, st, rows, vals := logWriter(t)
			sr, sv := small(rows, 2), small(vals, 2)
			publish(t, clean, w, sr[0], sv[0])
			// A torn record fails the append and is cut back off: the
			// generation does not advance and the batch is not applied.
			inj := fault.New(fault.Schedule{Seed: seed, Points: []string{fault.PointLogWrite}, Rate: 1, Mode: fault.ShortWrite, MaxInjections: 1})
			r, v := sr[1], sv[1]
			if err := w.Append(fault.WithInjector(clean, inj), r, v); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("append = %v, want the torn write", err)
			}
			if w.Generation() != 2 {
				t.Fatalf("generation %d after a torn record, want 2", w.Generation())
			}
			// The client sends it again; its record follows the valid
			// prefix.
			publish(t, clean, w, r, v)
			s3 := publish(t, clean, w, sr[2], sv[2])
			requireRecovers(t, st, 4, s3)
			if chain, n := logTail(t, st); chain.Tail != nil || n != 3 {
				t.Fatalf("log after a torn append: %d records, tail %v; want 3 and none", n, chain.Tail)
			}

			// A crash mid-record leaves a torn tail on disk: cut the last
			// record short by a seed-chosen count of bytes.
			chain, _ := logTail(t, st)
			path := filepath.Join(st.Dir(), fmt.Sprintf("facts.%08d.log", chain.Log))
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			publish(t, clean, w, sr[3], sv[3])
			grown, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			record := grown.Size() - info.Size()
			if err := os.Truncate(path, grown.Size()-1-int64(seed)%(record-1)); err != nil {
				t.Fatal(err)
			}
			requireRecovers(t, st, 4, s3)
			// A reopened writer recovers the prefix and cuts the torn tail
			// before its first record, which then replays after it.
			w2, err := writer.Open(clean, writer.Config{Store: st, Name: "facts", Card: []int{4, 3, 2}, Masks: []int{0b011}})
			if err != nil {
				t.Fatal(err)
			}
			if w2.Generation() != 4 || !strings.Contains(w2.Status().LastError, "corrupt") {
				t.Fatalf("reopened at generation %d, status %q; want 4 and the torn tail reported", w2.Generation(), w2.Status().LastError)
			}
			s5 := publish(t, clean, w2, sr[4], sv[4])
			requireRecovers(t, st, 5, s5)
			if chain, n := logTail(t, st); chain.Tail != nil || n != 4 {
				t.Fatalf("log after reopen: %d records, tail %v; want 4 and none", n, chain.Tail)
			}
		})

		t.Run(fmt.Sprintf("seed=%d/bit-flip", seed), func(t *testing.T) {
			w, st, rows, vals := logWriter(t)
			sr, sv := small(rows, 2), small(vals, 2)
			s2 := publish(t, clean, w, sr[0], sv[0])
			// A flipped bit in the second record passes the append (only
			// a checksum can tell) and is caught on replay.
			inj := fault.New(fault.Schedule{Seed: seed, Points: []string{fault.PointLogWrite}, Rate: 1, Mode: fault.BitFlip, MaxInjections: 1})
			r, v := sr[1], sv[1]
			publish(t, fault.WithInjector(clean, inj), w, r, v)
			publish(t, clean, w, sr[2], sv[2])
			if inj.Injected() != 1 {
				t.Fatalf("%d bit-flips injected, want 1", inj.Injected())
			}
			chain, n := logTail(t, st)
			if !errors.Is(chain.Tail, snapshot.ErrCorrupt) || n != 1 || chain.Gen != 2 {
				t.Fatalf("replay: %d records to generation %d, tail %v; want 1, 2 and ErrCorrupt", n, chain.Gen, chain.Tail)
			}
			requireRecovers(t, st, 2, s2)
			// A reopened writer carries on from generation 2: the corrupt
			// record and the one after it are cut, the new one replays.
			w2, err := writer.Open(clean, writer.Config{Store: st, Name: "facts", Card: []int{4, 3, 2}, Masks: []int{0b011}})
			if err != nil {
				t.Fatal(err)
			}
			s3 := publish(t, clean, w2, r, v)
			requireRecovers(t, st, 3, s3)
			if chain, n := logTail(t, st); chain.Tail != nil || n != 2 {
				t.Fatalf("log after reopen: %d records, tail %v; want 2 and none", n, chain.Tail)
			}
		})

		t.Run(fmt.Sprintf("seed=%d/crash-after-fsync", seed), func(t *testing.T) {
			w, st, rows, vals := logWriter(t)
			sr, sv := small(rows, 2), small(vals, 2)
			s2 := publish(t, clean, w, sr[0], sv[0])
			inj := fault.New(fault.Schedule{Seed: seed, Points: []string{fault.PointWriterPublish}, Rate: 1, Mode: fault.Panic, MaxInjections: 1})
			r, v := sr[1], sv[1]
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("publish-window panic did not fire")
					}
				}()
				_ = w.Append(fault.WithInjector(clean, inj), r, v)
			}()
			// The record was durable before the crash: it replays, once.
			staged := s2.Clone()
			if _, err := staged.AppendRowsCtx(clean, r, v); err != nil {
				t.Fatal(err)
			}
			requireRecovers(t, st, 3, staged)
			if _, n := logTail(t, st); n != 2 {
				t.Fatalf("log holds %d records after the crash, want 2", n)
			}
			w2, err := writer.Open(clean, writer.Config{Store: st, Name: "facts", Card: []int{4, 3, 2}, Masks: []int{0b011}})
			if err != nil {
				t.Fatal(err)
			}
			s4 := publish(t, clean, w2, sr[2], sv[2])
			requireRecovers(t, st, 4, s4)
			if _, n := logTail(t, st); n != 3 {
				t.Fatalf("log holds %d records, want 3", n)
			}
		})

		t.Run(fmt.Sprintf("seed=%d/corrupt-newest-checkpoint", seed), func(t *testing.T) {
			w, st, rows, vals := logWriter(t)
			sr, sv := small(rows, 2), small(vals, 2)
			// Two small records into checkpoint 1's log, then a full
			// batch whose record outgrows the checkpoint and so writes
			// checkpoint 4, then two small records into its log.
			publish(t, clean, w, sr[0], sv[0])
			publish(t, clean, w, sr[1], sv[1])
			publish(t, clean, w, rows[2], vals[2])
			publish(t, clean, w, sr[3], sv[3])
			last := publish(t, clean, w, sr[4], sv[4])
			if gens, err := st.Generations("facts"); err != nil || fmt.Sprint(gens) != "[1 4]" {
				t.Fatalf("checkpoints %v (%v), want [1 4]", gens, err)
			}
			path := filepath.Join(st.Dir(), fmt.Sprintf("facts.%08d.snap", 4))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[int(seed)%len(b)] ^= 0x10
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			// Checkpoint 1 plus both logs recover the last acknowledged
			// generation.
			requireRecovers(t, st, 6, last)

			// A second fault tears checkpoint 1's log inside the record of
			// generation 4: recovery now stops at generation 3, short of
			// the corrupt checkpoint and its log. A writer carrying on from
			// there discards both before its first record, so a later
			// recovery never splices the old generations 5 and 6 onto the
			// new generation 4.
			logPath := filepath.Join(st.Dir(), fmt.Sprintf("facts.%08d.log", 1))
			info, err := os.Stat(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(logPath, info.Size()-1-int64(seed)); err != nil {
				t.Fatal(err)
			}
			w2, err := writer.Open(clean, writer.Config{Store: st, Name: "facts", Card: []int{4, 3, 2}, Masks: []int{0b011}})
			if err != nil {
				t.Fatal(err)
			}
			if w2.Generation() != 3 {
				t.Fatalf("reopened at generation %d, want 3", w2.Generation())
			}
			again := publish(t, clean, w2, sr[5], sv[5])
			requireRecovers(t, st, 4, again)
			if gens, err := st.Generations("facts"); err != nil || fmt.Sprint(gens) != "[1]" {
				t.Fatalf("checkpoints %v (%v) after the diverged recovery, want [1]", gens, err)
			}
		})
	}
}
