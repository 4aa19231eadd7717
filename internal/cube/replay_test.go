package cube

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"statcube/internal/snapshot"
)

// centValue draws an amount in cents: -1000.00 to 1000.00. Cents are not
// binary fractions, so sums round and the order of additions shows in
// the low bits.
func centValue(rng *rand.Rand) float64 { return float64(rng.Intn(200001)-100000) / 100 }

// TestDiffReplayMatchesPublishes: the state a writer builds publish by
// publish — clone, fold one batch, repeat — is bit for bit the state
// recovery builds from a checkpoint and the logs after it, which folds
// every logged batch in one AppendRowsCtx call. Checked on cent values,
// whose sums depend on addition order, on every stored mask, for a
// chain from the first checkpoint and for one from a checkpoint written
// midway.
func TestDiffReplayMatchesPublishes(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 7, 42} {
		for si, shape := range diffShapes {
			t.Run(fmt.Sprintf("seed=%d/card=%v", seed, shape.card), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1000 + int64(si)))
				in := diffInput(rng, shape, centValue)
				base := len(allMasks(len(in.Card))) - 1
				var masks []int
				for d := range in.Card {
					masks = append(masks, base&^(1<<uint(d)))
				}
				pub, err := MaterializeCtx(ctx, in, masks)
				if err != nil {
					t.Fatal(err)
				}
				st, err := snapshot.OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.SaveAt(ctx, "facts", 1, func(w io.Writer) error { return EncodeMaterialized(ctx, w, pub) }); err != nil {
					t.Fatal(err)
				}
				log, err := st.OpenLog("facts", 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer log.Close()
				const batches, midway = 8, 5
				var body []byte
				for gen := uint64(2); gen < 2+batches; gen++ {
					rows := make([][]int, 1+rng.Intn(40))
					vals := make([]float64, len(rows))
					for i := range rows {
						rows[i] = make([]int, len(in.Card))
						for d, c := range in.Card {
							rows[i][d] = rng.Intn(c)
						}
						vals[i] = centValue(rng)
					}
					next := pub.Clone()
					if _, err := next.AppendRowsCtx(ctx, rows, vals); err != nil {
						t.Fatal(err)
					}
					pub = next
					body = AppendBatch(body[:0], rows, vals)
					if err := log.Append(ctx, gen, body); err != nil {
						t.Fatal(err)
					}
					if gen == midway {
						// A checkpoint at generation 5: its own log takes the
						// rest, and checkpoint 1 plus both logs must agree.
						if _, err := st.SaveAt(ctx, "facts", gen, func(w io.Writer) error { return EncodeMaterialized(ctx, w, pub) }); err != nil {
							t.Fatal(err)
						}
						if err := log.Close(); err != nil {
							t.Fatal(err)
						}
						if log, err = st.OpenLog("facts", gen, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
				got, gen, err := LoadMaterialized(ctx, st, "facts")
				if err != nil {
					t.Fatal(err)
				}
				if gen != 1+batches || !got.Identical(pub) {
					t.Fatalf("checkpoint 5 + its log: generation %d (want %d), identical %v", gen, 1+batches, got.Identical(pub))
				}
				if err := os.Remove(filepath.Join(st.Dir(), fmt.Sprintf("facts.%08d.snap", midway))); err != nil {
					t.Fatal(err)
				}
				got, gen, err = LoadMaterialized(ctx, st, "facts")
				if err != nil {
					t.Fatal(err)
				}
				if gen != 1+batches || !got.Identical(pub) {
					t.Fatalf("checkpoint 1 + both logs: generation %d (want %d), identical %v", gen, 1+batches, got.Identical(pub))
				}
			})
		}
	}
}

// FuzzReplayLog drives recovery's log path with hostile bytes: the
// fuzzer's data is the log extending checkpoint 1 of a {3, 2} cube.
// Whatever the bytes, replay gives a valid prefix — records that fold
// into the cube without error — and, past it, at most a typed error
// matching snapshot.ErrCorrupt; it never panics, and no length or count
// field makes it allocate beyond the bytes that back it: the replay's
// allocations stay within four bytes per input byte (a decoded row is a
// row header plus 8-byte codes and value, at most 4× its coded size).
func FuzzReplayLog(f *testing.F) {
	ctx := context.Background()
	card := []int{3, 2}
	st, err := snapshot.OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	log, err := st.OpenLog("seed", 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	batches := [][][]int{{{0, 1}, {2, 0}}, {}, {{1, 1}, {1, 1}, {0, 0}}}
	for i, rows := range batches {
		vals := make([]float64, len(rows))
		for j := range vals {
			vals[j] = float64(j) + 0.25
		}
		if err := log.Append(ctx, uint64(i+2), AppendBatch(nil, rows, vals)); err != nil {
			f.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(st.Dir(), fmt.Sprintf("seed.%08d.log", 1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn last record
	f.Add(good[:10])          // torn header
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x08
	f.Add(flipped)
	huge := append([]byte(nil), good...)
	huge[20+1+7] = 0x7F // the first record's length field → 2^62-ish
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte("STCL garbage"))
	base, err := MaterializeCtx(ctx, &Input{Card: card, Rows: [][]int{{0, 0}, {2, 1}}, Vals: []float64{1, 2}}, []int{0b01})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rp := &replay{card: card}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		last, valid, err := snapshot.ScanLog(data, 1, rp.add)
		rows, vals := rp.batch()
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("refusal is not ErrCorrupt: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) || (err == nil && valid != int64(len(data))) {
			t.Fatalf("valid prefix %d of %d bytes (err %v)", valid, len(data), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(data))+64<<10 {
			t.Fatalf("replay of %d bytes allocated %d", len(data), alloc)
		}
		// The prefix alone replays cleanly to the same generation.
		again := &replay{card: card}
		if l, v, err := snapshot.ScanLog(data[:valid], 1, again.add); err != nil || l != last || v != valid || again.rows != rp.rows {
			t.Fatalf("prefix rescan: generation %d, %d bytes, %d rows, err %v; want %d, %d, %d", l, v, again.rows, err, last, valid, rp.rows)
		}
		if _, err := base.Clone().AppendRowsCtx(ctx, rows, vals); err != nil {
			t.Fatalf("replayed prefix does not fold: %v", err)
		}
	})
}
