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
// {011,101,110}): the hashes were computed on the commit before the view
// containers were merged, so a generation written by either side of that
// change loads on the other.
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
	goldenViews        = "1d14ba97539f5c4ad54425848695e2a83f9b626175f1a3515723b31e7bc43098"
	goldenMaterialized = "a60beb665f353119d912084673cda1e6db017f677bebeb1ffd81fcfc39258bb9"
)
