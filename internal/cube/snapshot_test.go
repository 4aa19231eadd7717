package cube

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"statcube/internal/budget"
	"statcube/internal/fault"
	"statcube/internal/snapshot"
)

// snapshotInput builds a small but non-trivial coded fact table.
func snapshotInput(t *testing.T) *Input {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	in := &Input{Card: []int{4, 3, 5}}
	for i := 0; i < 500; i++ {
		in.Rows = append(in.Rows, []int{rng.Intn(4), rng.Intn(3), rng.Intn(5)})
		in.Vals = append(in.Vals, rng.NormFloat64())
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestViewsSnapshotRoundTrip: a full cube survives encode/decode exactly
// — same masks, same keys, bit-identical sums.
func TestViewsSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	v, err := BuildROLAPSmallestParentCtx(ctx, snapshotInput(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeViews(ctx, &buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeViews(ctx, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Identical(got) {
		t.Fatal("decoded cube differs from the original")
	}
}

// TestViewsSnapshotDeterministic: encoding the same cube twice yields
// byte-identical files — the sorted-key discipline holds.
func TestViewsSnapshotDeterministic(t *testing.T) {
	ctx := context.Background()
	v, err := BuildROLAPNaiveCtx(ctx, snapshotInput(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := EncodeViews(ctx, &a, v); err != nil {
		t.Fatal(err)
	}
	if err := EncodeViews(ctx, &b, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodes of one cube differ")
	}
}

// TestMaterializedSnapshotRoundTrip: a materialized set answers queries
// identically after a save/load cycle through a store.
func TestMaterializedSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	in := snapshotInput(t)
	m, err := MaterializeCtx(ctx, in, []int{0b011, 0b100})
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaveViews(ctx, st, "mv", m.views); err != nil {
		t.Fatal(err)
	}
	got, gen, err := LoadMaterialized(ctx, st, "mv")
	if err != nil || gen != 1 {
		t.Fatalf("LoadMaterialized: gen %d err %v", gen, err)
	}
	if want, have := m.MaterializedMasks(), got.MaterializedMasks(); len(want) != len(have) {
		t.Fatalf("masks %v, want %v", have, want)
	}
	for mask := 0; mask < 1<<3; mask++ {
		a, _, err := m.Answer(mask)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := got.Answer(mask)
		if err != nil {
			t.Fatal(err)
		}
		if !identicalAnswers(a, b) {
			t.Fatalf("mask %b answers differ after reload", mask)
		}
	}
}

// TestLoadViewsChargesBudget: decoding a snapshot reserves against the
// context's governor like a build does — a cube too big for the cell
// quota fails the load with the typed budget error.
func TestLoadViewsChargesBudget(t *testing.T) {
	ctx := context.Background()
	v, err := BuildROLAPNaiveCtx(ctx, snapshotInput(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeViews(ctx, &buf, v); err != nil {
		t.Fatal(err)
	}
	gov := budget.NewGovernor(budget.Limits{MaxCells: 10})
	tight := budget.WithGovernor(context.Background(), gov)
	if _, err := DecodeViews(tight, bytes.NewReader(buf.Bytes())); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	// Cells are a cumulative production quota and stay charged; the byte
	// ledger must drain to zero when the failed load unwinds.
	if gov.BytesReserved() != 0 {
		t.Fatalf("failed load leaked %d reserved bytes", gov.BytesReserved())
	}
}

// TestDecodeViewsRejectsGarbagePayloads: structurally broken payloads
// inside CRC-valid sections are still typed corruption, never a panic or
// a silently wrong cube.
func TestDecodeViewsRejectsGarbagePayloads(t *testing.T) {
	ctx := context.Background()
	cases := map[string]func(enc *snapshot.Encoder) error{
		"no meta": func(enc *snapshot.Encoder) error {
			return enc.Section(sectionView, make([]byte, 12))
		},
		"unknown kind": func(enc *snapshot.Encoder) error {
			return enc.Section(9, []byte("?"))
		},
		"meta dims overflow": func(enc *snapshot.Encoder) error {
			return enc.Section(sectionMeta, []byte{17})
		},
		"zero cardinality": func(enc *snapshot.Encoder) error {
			return enc.Section(sectionMeta, []byte{1, 0, 0, 0, 0})
		},
	}
	for name, build := range cases {
		var buf bytes.Buffer
		enc, err := snapshot.NewEncoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := build(enc); err != nil {
			t.Fatal(err)
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeViews(ctx, bytes.NewReader(buf.Bytes())); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// container wraps a meta payload and view payloads in a valid snapshot
// container, so its CRCs admit them and the payload parser is what gets
// tested.
func container(t testing.TB, meta []byte, views ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := snapshot.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Section(sectionMeta, meta); err != nil {
		t.Fatal(err)
	}
	for _, view := range views {
		if err := enc.Section(sectionView, view); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wrappedCountView is a 12-byte view section of mask 0 claiming 1<<60
// entries: 16*n wraps to 0, so a length check done in uint64 arithmetic
// passes it.
var wrappedCountView = []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10}

// TestDecodeViewsEntryCountOverflow: the claimed entry count is bounded
// by the section's length before any arithmetic on it — the wrapped count
// is typed corruption, not an index-out-of-range panic.
func TestDecodeViewsEntryCountOverflow(t *testing.T) {
	blob := container(t, []byte{1, 2, 0, 0, 0}, wrappedCountView)
	if _, err := DecodeViews(context.Background(), bytes.NewReader(blob)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// wideMeta is a meta section of five dimensions of 8193 values each: every
// cardinality is in range, but together they span more than 2^64 keys.
var wideMeta = []byte{5, 1, 32, 0, 0, 1, 32, 0, 0, 1, 32, 0, 0, 1, 32, 0, 0, 1, 32, 0, 0}

// TestDecodeViewsKeySpaceOverflow: a meta section whose cardinalities
// would wrap the view keys is typed corruption, not a cube whose distinct
// cells share keys.
func TestDecodeViewsKeySpaceOverflow(t *testing.T) {
	blob := container(t, wideMeta)
	if _, err := DecodeViews(context.Background(), bytes.NewReader(blob)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestSaveViewsFaultAtSectionBoundary: an error injected at the
// snapshot.section hook fails the save cleanly — typed error, no new
// generation, previous generation untouched.
func TestSaveViewsFaultAtSectionBoundary(t *testing.T) {
	ctx := context.Background()
	v, err := BuildROLAPNaiveCtx(ctx, snapshotInput(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaveViews(ctx, st, "cube", v); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Schedule{Seed: 5, Rate: 1, Mode: fault.Error, MaxInjections: 1,
		Points: []string{fault.PointSnapshotSection}})
	if _, err := SaveViews(fault.WithInjector(ctx, inj), st, "cube", v); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	gens, err := st.Generations("cube")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("generations after failed save = %v, want just the first", gens)
	}
	if _, _, err := LoadViews(ctx, st, "cube"); err != nil {
		t.Fatalf("previous generation unloadable: %v", err)
	}
}

// TestMaterializedSnapshotNeedsBase: a snapshot missing the base cuboid
// must not reconstruct into a half-functional set.
func TestMaterializedSnapshotNeedsBase(t *testing.T) {
	blob := container(t, []byte{1, 2, 0, 0, 0})
	if _, err := DecodeMaterialized(context.Background(), bytes.NewReader(blob)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
