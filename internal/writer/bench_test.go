package writer_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"statcube/internal/snapshot"
	"statcube/internal/workload"
	"statcube/internal/writer"
)

// BenchmarkOpenAtLogBound is restart recovery at its worst: the bench
// dataset's served set (NewRetail(100, 20, 180, 100000, seed 1), views
// {011,101,110}) behind a log of 500-row records, as many as the log
// holds before its bytes reach the checkpoint's and the next publish
// writes a checkpoint (see recordsBeforeCheckpoint). Each Open decodes
// the checkpoint and replays the whole log in one fold.
func BenchmarkOpenAtLogBound(b *testing.B) {
	records := recordsBeforeCheckpoint(b)
	ctx := context.Background()
	st, err := snapshot.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cfg, loads := retailLoads(b, st, records)
	w, err := writer.Open(ctx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range loads {
		if err := w.Append(ctx, l.rows, l.vals); err != nil {
			b.Fatal(err)
		}
		if _, err := w.Flush(ctx); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		b.Fatal(err)
	}
	if gens, err := st.Generations("retail"); err != nil || len(gens) != 1 || gens[0] != 1 {
		b.Fatalf("checkpoints %v (%v): the log outgrew the checkpoint before %d records", gens, err, records)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := writer.Open(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if got := w.Generation(); got != uint64(1+records) {
			b.Fatalf("reopened at generation %d, want %d", got, 1+records)
		}
		b.StopTimer()
		if err := w.Close(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkOpenCheckpoint is restart recovery from a checkpoint alone:
// the bench dataset's served set saved as generation 1, with no log
// records behind it, as the ledger's recover_s times it. Each Open lists
// the store, decodes the checkpoint and finds its log empty.
func BenchmarkOpenCheckpoint(b *testing.B) {
	ctx := context.Background()
	st, err := snapshot.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cfg, _ := retailLoads(b, st, 0)
	w, err := writer.Open(ctx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Close(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := writer.Open(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if got := w.Generation(); got != 1 {
			b.Fatalf("reopened at generation %d, want 1", got)
		}
		b.StopTimer()
		if err := w.Close(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkCheckpointingPublish is the write path's tail on the same
// dataset: from a fresh checkpoint, publishes of 500 rows grow the log to
// the checkpoint's size, and the one that reaches it also writes a
// checkpoint of the whole set. It reports the median ordinary publish
// (publish-ms) and the checkpointing one (ckpt-ms), each an Append plus
// its Flush.
func BenchmarkCheckpointingPublish(b *testing.B) {
	records := recordsBeforeCheckpoint(b) + 1
	ctx := context.Background()
	var publish, ckpt []float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := snapshot.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		cfg, loads := retailLoads(b, st, records)
		w, err := writer.Open(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j, l := range loads {
			start := time.Now()
			if err := w.Append(ctx, l.rows, l.vals); err != nil {
				b.Fatal(err)
			}
			if _, err := w.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			if j < records-1 {
				publish = append(publish, ms)
			} else {
				ckpt = append(ckpt, ms)
			}
		}
		b.StopTimer()
		if gens, err := st.Generations("retail"); err != nil || !slices.Equal(gens, []uint64{1, uint64(1 + records)}) {
			b.Fatalf("checkpoints %v (%v): want the first and one written by publish %d", gens, err, records)
		}
		if err := w.Close(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(median(publish), "publish-ms")
	b.ReportMetric(median(ckpt), "ckpt-ms")
}

// recordsBeforeCheckpoint is how many of retailLoads' 500-row records
// the log holds below the first checkpoint's size: the most publishes
// that write no checkpoint. It is measured on a scratch store, from the
// checkpoint's file and the log's size after one record and after two —
// every record of 500 rows is the same size.
func recordsBeforeCheckpoint(b *testing.B) int {
	b.Helper()
	ctx := context.Background()
	st, err := snapshot.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cfg, loads := retailLoads(b, st, 2)
	w, err := writer.Open(ctx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	size := func(file string) int64 {
		info, err := os.Stat(filepath.Join(st.Dir(), file))
		if err != nil {
			b.Fatal(err)
		}
		return info.Size()
	}
	ckpt := size("retail.00000001.snap")
	var logged [2]int64
	for i, l := range loads {
		if err := w.Append(ctx, l.rows, l.vals); err != nil {
			b.Fatal(err)
		}
		if _, err := w.Flush(ctx); err != nil {
			b.Fatal(err)
		}
		logged[i] = size("retail.00000001.log")
	}
	if err := w.Close(ctx); err != nil {
		b.Fatal(err)
	}
	record := logged[1] - logged[0]
	if logged[1] >= ckpt {
		b.Fatalf("two records (%d B) reach the %d B checkpoint", logged[1], ckpt)
	}
	return int((ckpt-logged[0]-1)/record) + 1
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// load is one batch of coded facts.
type load struct {
	rows [][]int
	vals []float64
}

// retailLoads returns the writer configuration for the bench dataset's
// served set (NewRetail(100, 20, 180, 100000, seed 1), views
// {011,101,110}) in st, and n loads of 500 uniform rows, seed 1.
func retailLoads(b *testing.B, st *snapshot.Store, n int) (writer.Config, []load) {
	b.Helper()
	r, err := workload.NewRetail(100, 20, 180, 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	served, err := workload.CubeInputFromObject(r.Object)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	loads := make([]load, n)
	for i := range loads {
		rows := make([][]int, 500)
		vals := make([]float64, 500)
		for j := range rows {
			rows[j] = make([]int, len(served.Card))
			for d, c := range served.Card {
				rows[j][d] = rng.Intn(c)
			}
			vals[j] = float64(rng.Intn(100000)) / 100
		}
		loads[i] = load{rows, vals}
	}
	return writer.Config{Store: st, Name: "retail", Base: served, Masks: []int{0b011, 0b101, 0b110}}, loads
}
