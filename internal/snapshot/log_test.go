package snapshot

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statcube/internal/fault"
)

// appendRecords opens the log extending checkpoint base of "cube" at
// valid bytes and appends one record per body, numbered on from first.
func appendRecords(t *testing.T, st *Store, base uint64, valid int64, first uint64, bodies ...string) *Log {
	t.Helper()
	l, err := st.OpenLog("cube", base, valid)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bodies {
		if err := l.Append(context.Background(), first+uint64(i), []byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// replayed walks the logs from checkpoint gen and returns the chain and
// the bodies in order.
func replayed(t *testing.T, st *Store, gen uint64) (Chain, []string) {
	t.Helper()
	var bodies []string
	want := gen + 1
	chain, err := st.ReplayLogs("cube", gen, func(g uint64, body []byte) error {
		if g != want {
			t.Fatalf("record generation %d, want %d", g, want)
		}
		want++
		bodies = append(bodies, string(body))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return chain, bodies
}

// TestLogAppendReplay: records replay in order with their generations,
// and the chain names the log the next record goes to and its length.
func TestLogAppendReplay(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveAt(context.Background(), "cube", 1, writePayload([]byte("gen 1"))); err != nil {
		t.Fatal(err)
	}
	l := appendRecords(t, st, 1, 0, 2, "a", "bb", "")
	defer l.Close()
	chain, bodies := replayed(t, st, 1)
	if fmt.Sprint(bodies) != "[a bb ]" || chain.Gen != 4 || chain.Log != 1 || chain.LogBytes != l.Size() || chain.Tail != nil {
		t.Fatalf("replay = %q, chain %+v; want [a bb ] to generation 4 in log 1 of %d bytes", bodies, chain, l.Size())
	}
	info, err := os.Stat(filepath.Join(st.Dir(), "cube.00000001.snap"))
	if err != nil || chain.CheckpointBytes != info.Size() {
		t.Fatalf("checkpoint bytes %d, file %v (%v)", chain.CheckpointBytes, info, err)
	}
	// No log at all: the checkpoint is the whole chain.
	if chain, bodies := replayed(t, st, 9); chain.Gen != 9 || chain.Log != 9 || chain.LogBytes != 0 || len(bodies) != 0 {
		t.Fatalf("chain without a log = %+v, %q", chain, bodies)
	}
}

// TestLogChainFollowsCheckpoints: a checkpoint written at the generation
// a log reached starts the next log, and the walk from an older
// checkpoint crosses into it.
func TestLogChainFollowsCheckpoints(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, st, 1, 0, 2, "a", "b").Close()
	appendRecords(t, st, 3, 0, 4, "c").Close()
	chain, bodies := replayed(t, st, 1)
	if fmt.Sprint(bodies) != "[a b c]" || chain.Gen != 4 || chain.Log != 3 {
		t.Fatalf("replay = %q, chain %+v; want [a b c] to generation 4 in log 3", bodies, chain)
	}
}

// TestLogTornTailCut: a record cut short ends the valid prefix with a
// corrupt tail, and the first Append after reopening at the prefix cuts
// the tail before it writes.
func TestLogTornTailCut(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, st, 1, 0, 2, "first", "second").Close()
	path := filepath.Join(st.Dir(), "cube.00000001.log")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	chain, bodies := replayed(t, st, 1)
	if !errors.Is(chain.Tail, ErrCorrupt) || fmt.Sprint(bodies) != "[first]" || chain.Gen != 2 {
		t.Fatalf("replay = %q, chain %+v; want [first] and a corrupt tail", bodies, chain)
	}
	appendRecords(t, st, chain.Log, chain.LogBytes, 3, "again").Close()
	chain, bodies = replayed(t, st, 1)
	if chain.Tail != nil || fmt.Sprint(bodies) != "[first again]" || chain.Gen != 3 {
		t.Fatalf("after reopen: replay = %q, chain %+v; want [first again], no tail", bodies, chain)
	}
}

// TestLogRewind: a rewound record is gone, and the next one takes its
// place.
func TestLogRewind(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := appendRecords(t, st, 1, 0, 2, "kept", "withdrawn")
	defer l.Close()
	if err := l.Rewind(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(context.Background(), 3, []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if _, bodies := replayed(t, st, 1); fmt.Sprint(bodies) != "[kept replaced]" {
		t.Fatalf("replay after rewind = %q", bodies)
	}
}

// TestLogAppendFaults: a fault at log.write leaves no record — an error
// before the write, a torn write cut back off — and a flipped bit is
// caught on replay.
func TestLogAppendFaults(t *testing.T) {
	for _, mode := range []fault.Mode{fault.Error, fault.ShortWrite} {
		t.Run(mode.String(), func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			l := appendRecords(t, st, 1, 0, 2, "kept")
			defer l.Close()
			size := l.Size()
			inj := fault.New(fault.Schedule{Seed: 1, Points: []string{fault.PointLogWrite}, Rate: 1, Mode: mode})
			err = l.Append(fault.WithInjector(context.Background(), inj), 3, []byte("lost"))
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("append = %v, want injected", err)
			}
			info, err := os.Stat(filepath.Join(st.Dir(), "cube.00000001.log"))
			if err != nil || info.Size() != size || l.Size() != size {
				t.Fatalf("log is %v bytes (%v), committed %d; want %d", info.Size(), err, l.Size(), size)
			}
			if err := l.Append(context.Background(), 3, []byte("next")); err != nil {
				t.Fatal(err)
			}
			if chain, bodies := replayed(t, st, 1); chain.Tail != nil || fmt.Sprint(bodies) != "[kept next]" {
				t.Fatalf("replay = %q, tail %v", bodies, chain.Tail)
			}
		})
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := appendRecords(t, st, 1, 0, 2, "kept")
	defer l.Close()
	inj := fault.New(fault.Schedule{Seed: 1, Points: []string{fault.PointLogWrite}, Rate: 1, Mode: fault.BitFlip})
	if err := l.Append(fault.WithInjector(context.Background(), inj), 3, []byte("flipped")); err != nil {
		t.Fatal(err)
	}
	if chain, bodies := replayed(t, st, 1); !errors.Is(chain.Tail, ErrCorrupt) || fmt.Sprint(bodies) != "[kept]" {
		t.Fatalf("replay = %q, tail %v; want [kept] and a corrupt tail", bodies, chain.Tail)
	}
}

// TestScanLogRejects: every malformation ends the prefix with a typed
// error at the right place; an fn error ends it too.
func TestScanLogRejects(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, st, 1, 0, 2, "a", "b").Close()
	good, err := os.ReadFile(filepath.Join(st.Dir(), "cube.00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	first := logHeaderSize + frameHeaderSize + logGenSize + 1 + frameTailSize // end of record "a"
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := []struct {
		name   string
		data   []byte
		base   uint64
		valid  int64
		detail string
	}{
		{"magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), 1, 0, "bad magic"},
		{"header crc", mutate(func(b []byte) []byte { b[5] ^= 1; return b }), 1, 0, "header checksum"},
		{"wrong base", good, 7, 0, "extends generation 1"},
		{"torn header", good[:logHeaderSize-1], 1, 0, "torn header"},
		{"record kind", mutate(func(b []byte) []byte { b[first] = 9; return b }), 1, int64(first), "record kind"},
		{"record crc", mutate(func(b []byte) []byte { b[len(b)-5] ^= 1; return b }), 1, int64(first), "checksum mismatch"},
		{"torn record", good[:len(good)-1], 1, int64(first), "torn record"},
		{"length", mutate(func(b []byte) []byte { b[first+8] = 0xFF; return b }), 1, int64(first), "torn record"},
	}
	for _, c := range cases {
		last, valid, err := ScanLog(c.data, c.base, func(uint64, []byte) error { return nil })
		if !errors.Is(err, ErrCorrupt) || valid != c.valid || !strings.Contains(err.Error(), c.detail) {
			t.Errorf("%s: valid %d, err %v; want %d and %q", c.name, valid, err, c.valid, c.detail)
		}
		if want := c.base + uint64(max(0, int(c.valid)-logHeaderSize)/(first-logHeaderSize)); last != want {
			t.Errorf("%s: last generation %d, want %d", c.name, last, want)
		}
	}
	stop := errors.New("stop")
	if last, valid, err := ScanLog(good, 1, func(gen uint64, _ []byte) error {
		if gen == 3 {
			return stop
		}
		return nil
	}); !errors.Is(err, stop) || last != 2 || valid != int64(first) {
		t.Fatalf("fn refusal: last %d, valid %d, err %v", last, valid, err)
	}
	if last, valid, err := ScanLog(nil, 5, nil); err != nil || last != 5 || valid != 0 {
		t.Fatalf("empty log: last %d, valid %d, err %v", last, valid, err)
	}
}

// TestSaveAtPrunesWithLogs: a checkpoint's log goes with it when pruning
// removes it, and a pin on any generation the pair holds keeps both.
func TestSaveAtPrunesWithLogs(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	exists := func(name string) bool {
		_, err := os.Stat(filepath.Join(st.Dir(), name))
		return err == nil
	}
	for _, gen := range []uint64{1, 4} {
		if _, err := st.SaveAt(ctx, "cube", gen, writePayload([]byte("x"))); err != nil {
			t.Fatal(err)
		}
		appendRecords(t, st, gen, 0, gen+1, "r").Close()
	}
	st.Pin("cube", 2) // held by checkpoint 1's log
	if _, err := st.SaveAt(ctx, "cube", 7, writePayload([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if !exists("cube.00000001.snap") || !exists("cube.00000001.log") {
		t.Fatal("pruning removed checkpoint 1 or its log while generation 2 was pinned")
	}
	st.Unpin("cube", 2)
	if _, err := st.SaveAt(ctx, "cube", 9, writePayload([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cube.00000001.snap", "cube.00000001.log", "cube.00000004.snap", "cube.00000004.log"} {
		if exists(name) {
			t.Errorf("%s survived pruning", name)
		}
	}
	if gens, err := st.Generations("cube"); err != nil || fmt.Sprint(gens) != "[7 9]" {
		t.Fatalf("checkpoints = %v (%v), want [7 9]", gens, err)
	}
}

// TestSaveAtDropsStaleLog: a checkpoint starts with no log, whatever an
// earlier history left under its number.
func TestSaveAtDropsStaleLog(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, st, 3, 0, 4, "stale").Close()
	if _, err := st.SaveAt(context.Background(), "cube", 3, writePayload([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if chain, bodies := replayed(t, st, 3); len(bodies) != 0 || chain.Gen != 3 {
		t.Fatalf("checkpoint 3 replays %q", bodies)
	}
}

// TestDiscardAfter: checkpoints and logs numbered past the generation go,
// the rest stay.
func TestDiscardAfter(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, gen := range []uint64{1, 5} {
		if _, err := st.SaveAt(context.Background(), "cube", gen, writePayload([]byte("x"))); err != nil {
			t.Fatal(err)
		}
		appendRecords(t, st, gen, 0, gen+1, "r").Close()
	}
	if err := st.DiscardAfter("cube", 3); err != nil {
		t.Fatal(err)
	}
	snaps, _ := st.list("cube", ".snap")
	logs, _ := st.list("cube", ".log")
	if fmt.Sprint(snaps) != "[1]" || fmt.Sprint(logs) != "[1]" {
		t.Fatalf("after DiscardAfter(3): checkpoints %v, logs %v; want [1] and [1]", snaps, logs)
	}
}
