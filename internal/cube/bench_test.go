package cube_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"statcube/internal/cube"
	"statcube/internal/workload"
)

// The write-path and build kernels on the bench dataset (bench/gen.go:
// NewRetail(100, 20, 180, 100000, seed 1); the served set is its base
// cells with views {011,101,110}), with allocations reported: the per-PR
// trajectory of these three is recorded in CHANGES.md.

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

// BenchmarkPublish is what one 500-row load costs the cube layer: clone
// the published generation, fold the batch into every view, encode the
// result (the fsync is snapshot's, not measured here).
func BenchmarkPublish(b *testing.B) {
	_, served := benchRetail(b)
	ctx := context.Background()
	set, err := cube.MaterializeCtx(ctx, served, benchMasks)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int, 500)
	vals := make([]float64, len(rows))
	for i := range rows {
		rows[i] = make([]int, len(served.Card))
		for d, c := range served.Card {
			rows[i][d] = rng.Intn(c)
		}
		vals[i] = float64(rng.Intn(1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone := set.Clone()
		if _, err := clone.AppendRowsCtx(ctx, rows, vals); err != nil {
			b.Fatal(err)
		}
		if err := cube.EncodeMaterialized(ctx, io.Discard, clone); err != nil {
			b.Fatal(err)
		}
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
