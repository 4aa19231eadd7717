package cube

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
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

// section is one view section of a test container: its kind, view (2)
// or packed (3), and its payload.
type section struct {
	kind    uint8
	payload []byte
}

// container wraps a meta payload and view sections in a valid snapshot
// container, so its CRCs admit them and the payload parser is what gets
// tested.
func container(t testing.TB, meta []byte, views ...section) []byte {
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
		if err := enc.Section(view.kind, view.payload); err != nil {
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
	blob := container(t, []byte{1, 2, 0, 0, 0}, section{sectionView, wrappedCountView})
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

// TestDecodeViewsKeyBeyondSpace: a key above the largest its view can
// hold is corruption in either section kind. Loaded, a roll-up would
// drop its overflow digit (see rekey) and fold the entry into a wrong
// cell of every coarser view.
func TestDecodeViewsKeyBeyondSpace(t *testing.T) {
	meta := []byte{2, 3, 0, 0, 0, 2, 0, 0, 0} // card {3, 2}: view 01 holds keys 0..2
	one := math.Float64bits(1)
	cases := map[string]section{
		"legacy": {sectionView, append(le32(1), le64(2, 0, one, 3, one)...)},
		"packed": {sectionPacked, pview(1, 2, 1, 1, 0, 2, 2, 2)}, // keys 0 and 3
	}
	for name, s := range cases {
		_, err := DecodeViews(context.Background(), bytes.NewReader(container(t, meta, s)))
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "key space") {
			t.Errorf("%s: err = %v, want ErrCorrupt for the key", name, err)
		}
	}
	// The largest key in the space loads.
	ok := section{sectionPacked, pview(1, 2, 1, 1, 0, 1, 2, 2)} // keys 0 and 2
	if _, err := DecodeViews(context.Background(), bytes.NewReader(container(t, meta, ok))); err != nil {
		t.Fatal(err)
	}
}

// TestDecodePackedClaimAllocatesNothing: a packed section claiming 2^60
// entries is refused on its count, before the governor is charged or a
// run allocated: the refusal allocates no more than refusing a claim of
// two entries in the same 64 KiB does — nothing sized by the claim or by
// the bytes.
func TestDecodePackedClaimAllocatesNothing(t *testing.T) {
	meta := []byte{1, 2, 0, 0, 0}
	body := make([]byte, 64<<10)
	huge := container(t, meta, section{sectionPacked, pview(1, 1<<60, 1, 1, 0, body...)})
	two := container(t, meta, section{sectionPacked, pview(1, 2, 1, 1, 0, body...)})
	gov := budget.NewGovernor(budget.Limits{})
	ctx := budget.WithGovernor(context.Background(), gov)
	if _, err := DecodeViews(ctx, bytes.NewReader(huge)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if gov.PeakBytes() != 0 || gov.CellsUsed() != 0 {
		t.Fatalf("refused claim charged %d bytes, %d cells", gov.PeakBytes(), gov.CellsUsed())
	}
	allocated := func(blob []byte) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if _, err := DecodeViews(context.Background(), bytes.NewReader(blob)); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	if got, base := allocated(huge), allocated(two); got > base+1024 {
		t.Fatalf("refusing the claim allocated %d B a decode, refusing two entries %d B", got, base)
	}
}

// TestPackedWidths: each column takes the narrowest of 1, 2, 4 and 8
// bytes that holds all of its values — gaps by their size, sums as
// zigzag integers while every one is an integer of at most four bytes'
// code and not −0, else float64 bits — and every width decodes back bit
// for bit.
func TestPackedWidths(t *testing.T) {
	card := []int{1 << 28, 1 << 28} // the full view spans 2^56 keys
	cases := []struct {
		name   string
		keys   []uint64
		sums   []float64
		gw, sw int
	}{
		{"empty", nil, nil, 1, 1},
		{"one entry", []uint64{7}, []float64{0}, 1, 1},
		{"1-byte gap", []uint64{0, 256}, []float64{127, -128}, 1, 1},
		{"2-byte gap", []uint64{0, 257}, []float64{128, -129}, 2, 2},
		{"4-byte gap", []uint64{0, 1 << 32}, []float64{1<<31 - 1, -1 << 31}, 4, 4},
		{"8-byte gap", []uint64{0, 1<<32 + 1}, []float64{1 << 31, 1}, 8, 8},
		{"integer past 2^53", []uint64{1, 2}, []float64{1 << 60, 1}, 1, 8},
		{"fraction", []uint64{1, 2}, []float64{0.5, 1}, 1, 8},
		{"-0", []uint64{1, 2}, []float64{math.Copysign(0, -1), 1}, 1, 8},
		{"NaN", []uint64{1, 2}, []float64{math.NaN(), 1}, 1, 8},
		{"Inf", []uint64{1, 2, 3}, []float64{math.Inf(1), math.Inf(-1), 1}, 1, 8},
	}
	for _, c := range cases {
		v := newViews(card)
		v.stored[3] = packedView(&run{keys: c.keys, sums: c.sums})
		p := appendPacked(nil, 3, v.stored[3])
		if gw, sw := int(p[12]), int(p[13]); gw != c.gw || sw != c.sw {
			t.Errorf("%s: widths %d and %d, want %d and %d", c.name, gw, sw, c.gw, c.sw)
		}
		if want := packedHeaderBytes + packedBytes(len(c.keys), c.gw, c.sw); len(p) != want {
			t.Errorf("%s: %d bytes, want %d", c.name, len(p), want)
		}
		var buf bytes.Buffer
		if err := EncodeViews(context.Background(), &buf, v); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeViews(context.Background(), bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !v.Identical(got) {
			t.Errorf("%s: decodes to a different view", c.name)
		}
	}
}
