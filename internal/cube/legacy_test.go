package cube_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"statcube/internal/cube"
	"statcube/internal/snapshot"
	"statcube/internal/writer"
)

// The store under testdata/legacy was written by the encoder before
// packed sections: checkpoint 1 of "legacy" holds view (2) sections, and
// its log holds generations 2 and 3. A writer wrote it, over legacyData's
// base with masks {011, 100}, publishing its two batches in turn.
var legacyMasks = []int{0b011, 0b100}

// legacyData is the fact table and the batches the legacy store holds.
// Values are halves, so every sum is exact in any order.
func legacyData() (base *cube.Input, rows [][][]int, vals [][]float64) {
	rng := rand.New(rand.NewSource(41))
	row := func() []int { return []int{rng.Intn(4), rng.Intn(3), rng.Intn(5)} }
	val := func() float64 { return float64(1+rng.Intn(200)) / 2 }
	base = &cube.Input{Card: []int{4, 3, 5}}
	for i := 0; i < 120; i++ {
		base.Rows, base.Vals = append(base.Rows, row()), append(base.Vals, val())
	}
	rows, vals = make([][][]int, 2), make([][]float64, 2)
	for b := range rows {
		for i := 0; i < 10; i++ {
			rows[b], vals[b] = append(rows[b], row()), append(vals[b], val())
		}
	}
	return base, rows, vals
}

// legacyStore copies the legacy store into a fresh directory and opens it.
func legacyStore(t *testing.T) *snapshot.Store {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"legacy.00000001.snap", "legacy.00000001.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sectionKinds lists the section kinds of checkpoint gen of "legacy".
func sectionKinds(t *testing.T, st *snapshot.Store, gen uint64) []uint8 {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(st.Dir(), fmt.Sprintf("legacy.%08d.snap", gen)))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.NewDecoder(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []uint8
	for {
		kind, _, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return kinds
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, kind)
	}
}

// freshBuild materializes base with every batch's rows appended.
func freshBuild(t *testing.T, base *cube.Input, rows [][][]int, vals [][]float64) *cube.MaterializedSet {
	t.Helper()
	all := &cube.Input{Card: base.Card, Rows: slices.Clone(base.Rows), Vals: slices.Clone(base.Vals)}
	for i := range rows {
		all.Rows, all.Vals = append(all.Rows, rows[i]...), append(all.Vals, vals[i]...)
	}
	m, err := cube.MaterializeCtx(context.Background(), all, legacyMasks)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLegacyStoreLoads: a store whose checkpoint holds view sections
// still loads, log replayed, identical to a fresh build of its facts;
// and the loaded cube re-encodes as packed sections that decode to it
// again.
func TestLegacyStoreLoads(t *testing.T) {
	ctx := context.Background()
	st := legacyStore(t)
	if kinds := sectionKinds(t, st, 1); !slices.Equal(kinds, []uint8{1, 2, 2, 2}) {
		t.Fatalf("fixture checkpoint sections %v, want meta and three view sections", kinds)
	}
	got, gen, err := cube.LoadMaterialized(ctx, st, "legacy")
	if err != nil {
		t.Fatal(err)
	}
	base, rows, vals := legacyData()
	if want := freshBuild(t, base, rows, vals); gen != 3 || !got.Identical(want) {
		t.Fatalf("loaded generation %d (want 3), identical to a fresh build: %v", gen, got.Identical(want))
	}
	var buf bytes.Buffer
	if err := cube.EncodeMaterialized(ctx, &buf, got); err != nil {
		t.Fatal(err)
	}
	again, err := cube.DecodeMaterialized(ctx, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Identical(got) {
		t.Fatal("the packed re-encoding decodes to a different cube")
	}
}

// TestLegacyStoreWriterRepacks: a writer reopened on the legacy store
// replays its log, and the checkpoint it writes once the log has grown
// to the legacy checkpoint's size is packed — and recovers to what the
// writer published.
func TestLegacyStoreWriterRepacks(t *testing.T) {
	ctx := context.Background()
	st := legacyStore(t)
	base, rows, vals := legacyData()
	w, err := writer.Open(ctx, writer.Config{Store: st, Name: "legacy", Card: base.Card, Masks: legacyMasks})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Acquire()
	replayed := w.Generation() == 3 && h.Set().Identical(freshBuild(t, base, rows, vals))
	h.Release()
	if !replayed {
		t.Fatalf("reopened at generation %d, want 3 identical to a fresh build", w.Generation())
	}
	rng := rand.New(rand.NewSource(43))
	for len(rows) < 40 {
		if gens, err := st.Generations("legacy"); err != nil || len(gens) > 1 {
			break
		}
		var r [][]int
		var v []float64
		for i := 0; i < 10; i++ {
			r, v = append(r, []int{rng.Intn(4), rng.Intn(3), rng.Intn(5)}), append(v, float64(rng.Intn(100)))
		}
		if err := w.Append(ctx, r, v); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		rows, vals = append(rows, r), append(vals, v)
	}
	gens, err := st.Generations("legacy")
	if err != nil || len(gens) != 2 {
		t.Fatalf("checkpoints %v (%v): want the legacy one and one past it", gens, err)
	}
	if kinds := sectionKinds(t, st, gens[1]); !slices.Equal(kinds, []uint8{1, 3, 3, 3}) {
		t.Fatalf("new checkpoint sections %v, want meta and three packed sections", kinds)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	got, gen, err := cube.LoadMaterialized(ctx, st, "legacy")
	if err != nil {
		t.Fatal(err)
	}
	if want := freshBuild(t, base, rows, vals); gen != uint64(len(rows))+1 || !got.Identical(want) {
		t.Fatalf("recovered generation %d (want %d), identical to a fresh build: %v", gen, len(rows)+1, got.Identical(want))
	}
}
