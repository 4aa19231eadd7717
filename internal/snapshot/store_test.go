package snapshot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"

	"statcube/internal/fault"
	"statcube/internal/obs"
)

// writePayload returns a Save callback emitting one section with data.
func writePayload(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		enc, err := NewEncoder(w)
		if err != nil {
			return err
		}
		if err := enc.Section(1, data); err != nil {
			return err
		}
		return enc.Close()
	}
}

// readPayload returns a Load callback collecting the single section into
// dst, cloned: a payload is valid only until the next Next.
func readPayload(dst *[]byte) func(io.Reader) error {
	return func(r io.Reader) error {
		dec, err := NewDecoder(r)
		if err != nil {
			return err
		}
		for {
			_, payload, err := dec.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			*dst = bytes.Clone(payload)
		}
	}
}

// TestStoreSaveLoad: generations number up from 1 and Load serves the
// newest one.
func TestStoreSaveLoad(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		gen, err := st.Save(ctx, "cube", writePayload([]byte(fmt.Sprintf("v%d", i))))
		if err != nil {
			t.Fatal(err)
		}
		if gen != uint64(i) {
			t.Fatalf("generation %d, want %d", gen, i)
		}
	}
	var got []byte
	gen, err := st.Load(ctx, "cube", readPayload(&got))
	if err != nil || gen != 3 || string(got) != "v3" {
		t.Fatalf("Load = gen %d %q err %v, want gen 3 v3", gen, got, err)
	}
	// Keep defaults to 2: generation 1 should be pruned.
	gens, err := st.Generations("cube")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 2 || gens[1] != 3 {
		t.Fatalf("generations after prune = %v, want [2 3]", gens)
	}
}

// TestStoreLoadMissing: no generations at all is the typed ErrNotFound.
func TestStoreLoadMissing(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	if _, err := st.Load(context.Background(), "absent", readPayload(&got)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestStoreBadName: names carrying path separators or dots never touch
// the filesystem.
func TestStoreBadName(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a/b", `a\b`, "../escape", "dots.in.name"} {
		if _, err := st.Save(context.Background(), name, writePayload(nil)); err == nil {
			t.Errorf("Save accepted name %q", name)
		}
	}
}

// TestStoreRecoversPastCorruptGeneration: a bit-flipped newest generation
// is skipped and the previous one served, with the corruption and the
// recovery both counted.
func TestStoreRecoversPastCorruptGeneration(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := st.Save(ctx, "cube", writePayload([]byte("good"))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(ctx, "cube", writePayload([]byte("doomed"))); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, st.genPath("cube", 2))
	before := obs.Default().Snapshot()
	var got []byte
	gen, err := st.Load(ctx, "cube", readPayload(&got))
	if err != nil {
		t.Fatalf("recovery load failed: %v", err)
	}
	if gen != 1 || string(got) != "good" {
		t.Fatalf("Load = gen %d %q, want the last good generation", gen, got)
	}
	d := obs.Default().Snapshot().Sub(before)
	if d.Counters["snapshot.corrupt_detected"] != 1 || d.Counters["snapshot.recovered"] != 1 {
		t.Errorf("counters = corrupt %d recovered %d, want 1/1",
			d.Counters["snapshot.corrupt_detected"], d.Counters["snapshot.recovered"])
	}
}

// TestStoreAllGenerationsCorrupt: when nothing on disk is loadable the
// error is the newest generation's typed corruption, not a success and
// not ErrNotFound.
func TestStoreAllGenerationsCorrupt(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := st.Save(ctx, "cube", writePayload([]byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	corruptFile(t, st.genPath("cube", 1))
	corruptFile(t, st.genPath("cube", 2))
	var got []byte
	_, err = st.Load(ctx, "cube", readPayload(&got))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestStoreNonCorruptErrorAborts: an error that is not corruption — here
// a cancellation surfacing from the read callback — must abort the load
// immediately instead of silently serving stale data from an older
// generation.
func TestStoreNonCorruptErrorAborts(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := st.Save(ctx, "cube", writePayload([]byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	_, err = st.Load(ctx, "cube", func(io.Reader) error {
		calls++
		return context.Canceled
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("read ran %d times; non-corrupt errors must not trigger fallback", calls)
	}
}

// TestSaveTornWriteLeavesNoGeneration: a short write injected mid-save
// fails the Save with the typed fault error, leaves no new generation
// behind, and keeps the previous generation loadable.
func TestSaveTornWriteLeavesNoGeneration(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(context.Background(), "cube", writePayload([]byte("stable"))); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Schedule{Seed: 7, Rate: 1, Mode: fault.ShortWrite, MaxInjections: 1,
		Points: []string{fault.PointSnapshotWrite}})
	ctx := fault.WithInjector(context.Background(), inj)
	if _, err := st.Save(ctx, "cube", writePayload(bytes.Repeat([]byte("y"), 1<<16))); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn save err = %v, want ErrInjected", err)
	}
	gens, err := st.Generations("cube")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0] != 1 {
		t.Fatalf("generations after torn save = %v, want [1]", gens)
	}
	var got []byte
	if _, err := st.Load(context.Background(), "cube", readPayload(&got)); err != nil || string(got) != "stable" {
		t.Fatalf("previous generation unusable after torn save: %q %v", got, err)
	}
}

// TestSaveBitFlipCaughtOnLoad: a bit-flip injected into the write path
// produces a generation the decoder rejects — and the store recovers to
// the previous good one.
func TestSaveBitFlipCaughtOnLoad(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(context.Background(), "cube", writePayload([]byte("good"))); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Schedule{Seed: 3, Rate: 1, Mode: fault.BitFlip, MaxInjections: 1,
		Points: []string{fault.PointSnapshotWrite}})
	ctx := fault.WithInjector(context.Background(), inj)
	if _, err := st.Save(ctx, "cube", writePayload([]byte("silently damaged"))); err != nil {
		t.Fatalf("bit-flip save should succeed silently: %v", err)
	}
	var got []byte
	gen, err := st.Load(context.Background(), "cube", readPayload(&got))
	if err != nil {
		t.Fatalf("load after bit-flip: %v", err)
	}
	if gen != 1 || string(got) != "good" {
		t.Fatalf("Load = gen %d %q, want recovery to generation 1", gen, got)
	}
}

// corruptFile flips one bit in the middle of a file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashBetweenWriteAndRename is the durability acceptance test: a
// child process saves one good generation, then dies from a panic-mode
// injection in the window after the temp file is synced and before the
// rename — the moment a power cut would strand a torn temp file. The
// parent verifies the crash left no new generation and that Load serves
// the last good snapshot.
func TestCrashBetweenWriteAndRename(t *testing.T) {
	if os.Getenv("SNAPSHOT_CRASH_HELPER") == "1" {
		crashHelper()
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashBetweenWriteAndRename$", "-test.v")
	cmd.Env = append(os.Environ(), "SNAPSHOT_CRASH_HELPER=1", "SNAPSHOT_CRASH_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("helper survived the injected crash; output:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("helper did not exit: %v", err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := st.Generations("cube")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0] != 1 {
		t.Fatalf("generations after crash = %v, want only [1]; output:\n%s", gens, out)
	}
	var got []byte
	gen, err := st.Load(context.Background(), "cube", readPayload(&got))
	if err != nil || gen != 1 || string(got) != "survives the crash" {
		t.Fatalf("recovery after crash: gen %d %q err %v", gen, got, err)
	}
	// The stranded temp file is allowed to exist but must never be
	// mistaken for a generation.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if len(tmps) == 0 {
		t.Log("no temp file stranded (rename raced ahead of the panic?)")
	}
}

// crashHelper runs in the child process: one clean save, then a save
// that dies inside the crash window.
func crashHelper() {
	dir := os.Getenv("SNAPSHOT_CRASH_DIR")
	st, err := OpenStore(dir)
	if err != nil {
		panic(err)
	}
	if _, err := st.Save(context.Background(), "cube", writePayload([]byte("survives the crash"))); err != nil {
		panic(err)
	}
	inj := fault.New(fault.Schedule{Seed: 1, Rate: 1, Mode: fault.Panic, MaxInjections: 1,
		Points: []string{fault.PointSnapshotRename}})
	ctx := fault.WithInjector(context.Background(), inj)
	_, _ = st.Save(ctx, "cube", writePayload([]byte("never lands")))
	// The injected panic above must have killed us; exiting 0 here would
	// make the parent fail, which is exactly right.
}

// TestPinBlocksPruning: a pinned generation survives any number of
// pruning saves, whatever Keep says, and is swept by the first save
// after its unpin.
func TestPinBlocksPruning(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(context.Background(), "cube", writePayload([]byte("gen 1"))); err != nil {
		t.Fatal(err)
	}
	st.Pin("cube", 1)
	for i := 2; i <= 5; i++ {
		if _, err := st.Save(context.Background(), "cube", writePayload([]byte(fmt.Sprintf("gen %d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := st.Generations("cube")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[0] != 1 || gens[1] != 4 || gens[2] != 5 {
		t.Fatalf("generations = %v, want pinned 1 plus kept {4, 5}", gens)
	}
	// The pinned generation is not just present — it still loads its
	// original bytes (pruning never truncates, only unlinks whole).
	var got []byte
	if err := st.loadGen("cube", 1, readPayload(&got)); err != nil || string(got) != "gen 1" {
		t.Fatalf("pinned generation 1: %q, %v", got, err)
	}
	st.Unpin("cube", 1)
	if _, err := st.Save(context.Background(), "cube", writePayload([]byte("gen 6"))); err != nil {
		t.Fatal(err)
	}
	gens, err = st.Generations("cube")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		if g == 1 {
			t.Fatalf("generations = %v: unpinned generation 1 survived the sweep", gens)
		}
	}
}

// TestPinNests: two pins need two unpins; one release keeps the
// generation protected.
func TestPinNests(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(context.Background(), "cube", writePayload([]byte("gen 1"))); err != nil {
		t.Fatal(err)
	}
	st.Pin("cube", 1)
	st.Pin("cube", 1)
	st.Unpin("cube", 1)
	for i := 2; i <= 4; i++ {
		if _, err := st.Save(context.Background(), "cube", writePayload([]byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	gens, _ := st.Generations("cube")
	if len(gens) == 0 || gens[0] != 1 {
		t.Fatalf("generations = %v, want 1 still pinned by the second pin", gens)
	}
	st.Unpin("cube", 1)
}

// TestUnbalancedUnpinPanics: releasing a pin that was never taken is a
// reader lifecycle bug and must fail loudly.
func TestUnbalancedUnpinPanics(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Unpin did not panic")
		}
	}()
	st.Unpin("cube", 7)
}

// TestPinPruneConcurrent: readers pin generations while a writer saves
// and prunes at full speed (the MVCC read/write interleaving). A reader
// that pins a generation and re-verifies it still exists may rely on it
// until unpin: the file must exist and load its exact bytes however
// many pruning saves happen meanwhile. Run under -race this is also the
// pin bookkeeping's memory-model proof.
func TestPinPruneConcurrent(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Keep = 1 // prune as aggressively as the API allows... (<1 means 2)
	payload := func(gen uint64) []byte { return []byte(fmt.Sprintf("generation %d payload", gen)) }
	if _, err := st.Save(context.Background(), "cube", writePayload(payload(1))); err != nil {
		t.Fatal(err)
	}

	const saves = 60
	var verified atomic.Int64
	done := make(chan error, 5)
	for r := 0; r < 4; r++ {
		go func() {
			for k := 0; k < 40; k++ {
				gens, err := st.Generations("cube")
				if err != nil {
					done <- err
					return
				}
				gen := gens[len(gens)-1]
				st.Pin("cube", gen)
				// A raw store pin races an in-flight Save whose prune
				// decision predates it, so a just-pinned generation may
				// still vanish once — a lost race, release and retry. (The
				// writer layer closes this window: its own pin on the
				// current generation makes it un-prunable while readers
				// acquire.) What must NEVER happen is a torn read: a
				// generation that opens while pinned reads its exact bytes,
				// because pruning unlinks whole files only.
				var got []byte
				err = st.loadGen("cube", gen, readPayload(&got))
				if err != nil {
					st.Unpin("cube", gen)
					if errors.Is(err, os.ErrNotExist) {
						continue
					}
					done <- fmt.Errorf("pinned generation %d: %w", gen, err)
					return
				}
				if !bytes.Equal(got, payload(gen)) {
					st.Unpin("cube", gen)
					done <- fmt.Errorf("pinned generation %d read %q", gen, got)
					return
				}
				verified.Add(1)
				st.Unpin("cube", gen)
			}
			done <- nil
		}()
	}
	go func() {
		for i := 2; i <= saves; i++ {
			if _, err := st.Save(context.Background(), "cube", writePayload(payload(uint64(i)))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if verified.Load() == 0 {
		t.Fatal("no reader ever verified a pinned generation")
	}
}
