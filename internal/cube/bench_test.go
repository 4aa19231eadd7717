package cube_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"statcube/internal/cube"
	"statcube/internal/workload"
)

// The write-path and build kernels on the bench dataset (bench/gen.go:
// NewRetail(100, 20, 180, 100000, seed 1); the served set is its base
// cells with views {011,101,110}), with allocations reported: the per-PR
// trajectory of these is recorded in CHANGES.md.

var benchMasks = []int{0b011, 0b101, 0b110}

func benchRetail(b *testing.B) (retail, served *cube.Input) {
	b.Helper()
	r, err := workload.NewRetail(100, 20, 180, 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	served, err = workload.CubeInputFromObject(r.Object)
	if err != nil {
		b.Fatal(err)
	}
	return r.Input, served
}

// BenchmarkPublish is what one 500-row load costs the cube layer on the
// writer's path: clone the published generation and fold the batch into
// the clone, and code the batch's log record (the fsync is snapshot's,
// not measured here). Each iteration folds a fresh batch into the
// previous iteration's result, so deltas grow and views pack at the rate
// a run of publishes sees.
func BenchmarkPublish(b *testing.B) {
	_, served := benchRetail(b)
	ctx := context.Background()
	pub, err := cube.MaterializeCtx(ctx, served, benchMasks)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batches := make([]struct {
		rows [][]int
		vals []float64
	}, 64)
	for i := range batches {
		rows, vals := make([][]int, 500), make([]float64, 500)
		for j := range rows {
			rows[j] = make([]int, len(served.Card))
			for d, c := range served.Card {
				rows[j][d] = rng.Intn(c)
			}
			vals[j] = float64(rng.Intn(1000))
		}
		batches[i].rows, batches[i].vals = rows, vals
	}
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := &batches[i%len(batches)]
		next := pub.Clone()
		if _, err := next.AppendRowsCtx(ctx, bt.rows, bt.vals); err != nil {
			b.Fatal(err)
		}
		body = cube.AppendBatch(body[:0], bt.rows, bt.vals)
		pub = next
	}
}

// BenchmarkDecodeMaterialized is the cube layer's share of restart
// recovery: one generation's bytes back into a served set.
func BenchmarkDecodeMaterialized(b *testing.B) {
	_, served := benchRetail(b)
	ctx := context.Background()
	set, err := cube.MaterializeCtx(ctx, served, benchMasks)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.EncodeMaterialized(ctx, &buf, set); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.DecodeMaterialized(ctx, bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeViews is the encode half of the bulk save: the full cube
// of the raw 100 k facts written as one generation's bytes.
func BenchmarkEncodeViews(b *testing.B) {
	retail, _ := benchRetail(b)
	ctx := context.Background()
	v, err := cube.BuildROLAPSmallestParentCtx(ctx, retail, cube.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := cube.EncodeViews(ctx, &buf, v); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkBuildSmallestParent is the bulk build on the raw 100 k facts.
func BenchmarkBuildSmallestParent(b *testing.B) {
	retail, _ := benchRetail(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.BuildROLAPSmallestParentCtx(ctx, retail, cube.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterialize is the served set's build: the base cells and
// views {011,101,110} materialized from the served base, what
// writer.Open and statd -write pay at boot.
func BenchmarkMaterialize(b *testing.B) {
	_, served := benchRetail(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.MaterializeCtx(ctx, served, benchMasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRollUp is the roll-up kernel alone: the raw facts' base view
// (53 317 entries) rolled up into each of {011,101,110}, dropping the
// trailing, the middle and the leading dimension.
func BenchmarkRollUp(b *testing.B) {
	retail, _ := benchRetail(b)
	v, err := cube.BuildROLAPSmallestParentCtx(context.Background(), retail, cube.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mask := range benchMasks {
		b.Run(fmt.Sprintf("%03b", mask), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.RollUpBase(mask)
			}
		})
	}
}
