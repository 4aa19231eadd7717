package cube_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"statcube/internal/cube"
	"statcube/internal/workload"
)

// TestSnapshotBytesGolden pins the snapshot wire format on the bench
// dataset (bench/gen.go: NewRetail(100, 20, 180, 100000, seed 1), views
// {011,101,110}): the hashes are of packed view sections (kind 3), the
// only kind the encoder writes. They move only with the format; the
// legacy view sections an older encoder wrote are pinned by the store
// under testdata/legacy, which must go on loading.
func TestSnapshotBytesGolden(t *testing.T) {
	r, err := workload.NewRetail(100, 20, 180, 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.CubeInputFromObject(r.Object)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sum := func(encode func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := encode(&buf); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(h[:])
	}
	v, err := cube.BuildROLAPSmallestParentCtx(ctx, in, cube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum(func(b *bytes.Buffer) error { return cube.EncodeViews(ctx, b, v) }), goldenViews; got != want {
		t.Errorf("EncodeViews sha256 = %s, want %s", got, want)
	}
	m, err := cube.MaterializeCtx(ctx, in, []int{0b011, 0b101, 0b110})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum(func(b *bytes.Buffer) error { return cube.EncodeMaterialized(ctx, b, m) }), goldenMaterialized; got != want {
		t.Errorf("EncodeMaterialized sha256 = %s, want %s", got, want)
	}
}

const (
	goldenViews        = "a9d61b3c371795f7d89e0b6d4c57b0ec6db75cc4f2fc112606c53e660148bec4"
	goldenMaterialized = "034ed68f73de1cceefbe7896ae0492b9d31bf993a47d054220c23a5ba9289c8a"
)
