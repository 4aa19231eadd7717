package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"statcube/internal/fault"
	"statcube/internal/writer"
)

// TestNegCacheUnit: entries live for negTTL, expire on read, and the
// capacity sweep skips inserts rather than evicting fresh entries.
func TestNegCacheUnit(t *testing.T) {
	n := newNegCache()
	t0 := time.Unix(1000, 0)
	n.put("SHOW bogus", http.StatusBadRequest, "query", "no such measure", t0)
	if e, ok := n.get("SHOW bogus", t0.Add(negTTL-time.Second)); !ok || e.code != "query" {
		t.Fatalf("fresh entry: ok=%v e=%+v", ok, e)
	}
	if _, ok := n.get("SHOW bogus", t0.Add(negTTL+time.Second)); ok {
		t.Fatal("expired entry served")
	}
	if n.entries() != 0 {
		t.Fatalf("entries = %d after expiry read, want 0", n.entries())
	}
	// At capacity with all-fresh entries, inserts are skipped, not evicted.
	n.max = 2
	n.put("q1", 400, "query", "m", t0)
	n.put("q2", 400, "query", "m", t0)
	n.put("q3", 400, "query", "m", t0)
	if n.entries() != 2 {
		t.Fatalf("entries = %d at cap, want 2", n.entries())
	}
	if _, ok := n.get("q3", t0); ok {
		t.Fatal("over-cap insert stored")
	}
	n.invalidate()
	if n.entries() != 0 {
		t.Fatalf("entries = %d after invalidate, want 0", n.entries())
	}
}

// TestServeNegativeCache: a repeated broken query is answered from the
// negative cache (same envelope, marked header) and a generation bump
// drops remembered failures along with results.
func TestServeNegativeCache(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	const bad = "/query?q=SHOW+nonsense+BY+sex"
	w1 := do(h, "GET", bad, "")
	if w1.Code != http.StatusBadRequest {
		t.Fatalf("first broken query = %d, want 400", w1.Code)
	}
	if got := w1.Header().Get("X-Statd-Cache"); got == "neg" {
		t.Fatal("first failure claimed a neg hit")
	}
	w2 := do(h, "GET", bad, "")
	if w2.Code != http.StatusBadRequest {
		t.Fatalf("repeated broken query = %d, want 400", w2.Code)
	}
	if got := w2.Header().Get("X-Statd-Cache"); got != "neg" {
		t.Fatalf("X-Statd-Cache = %q on repeat, want neg", got)
	}
	if w1.Body.String() != w2.Body.String() {
		t.Fatalf("neg hit changed the envelope: %q vs %q", w1.Body.String(), w2.Body.String())
	}
	if s.neg.entries() != 1 {
		t.Fatalf("neg entries = %d, want 1", s.neg.entries())
	}
	s.SetGeneration(7)
	if s.neg.entries() != 0 {
		t.Fatal("generation bump kept remembered failures")
	}
	w3 := do(h, "GET", bad, "")
	if got := w3.Header().Get("X-Statd-Cache"); got == "neg" {
		t.Fatal("neg hit after invalidation")
	}
}

// TestServeNegativeCacheSkipsTransientErrors: a budget refusal (429) is
// moment-dependent and must never enter the negative cache.
func TestServeNegativeCacheSkipsTransientErrors(t *testing.T) {
	s := newTestServer(t, Config{AdmitBytes: 1 << 20, MaxBytes: 1 << 10})
	h := s.Handler()
	w := do(h, "GET", "/query?q="+qSex, "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("hot-ledger query = %d, want 429", w.Code)
	}
	if s.neg.entries() != 0 {
		t.Fatalf("neg entries = %d after a shed, want 0", s.neg.entries())
	}
	// The same query succeeds once capacity returns — nothing sticky.
	s2 := newTestServer(t, Config{})
	if w := do(s2.Handler(), "GET", "/query?q="+qSex, ""); w.Code != http.StatusOK {
		t.Fatalf("query under normal capacity = %d, want 200", w.Code)
	}
}

// appendBody builds a POST /append payload.
func appendBody(t *testing.T, rows [][]int, vals []float64) string {
	t.Helper()
	b, err := json.Marshal(appendRequest{Rows: rows, Vals: vals})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeAppend: POST /append publishes a generation through the
// writer, OnPublish live-invalidates the result cache, and /healthz
// reports the write path's status. An append whose load fails answers
// the typed error and is applied nowhere: the next append publishes its
// own rows alone.
func TestServeAppend(t *testing.T) {
	var s *Server
	wr, err := writer.Open(context.Background(), writer.Config{
		Card:      []int{4, 3, 2},
		OnPublish: func(gen uint64) { s.SetGeneration(gen) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s = newTestServer(t, Config{Writer: wr})
	h := s.Handler()

	// Warm the result cache, then append: the publish must invalidate it.
	if w := do(h, "GET", "/query?q="+qSex, ""); w.Code != http.StatusOK {
		t.Fatalf("warm query = %d", w.Code)
	}
	if w := do(h, "GET", "/query?q="+qSex, ""); w.Header().Get("X-Statd-Cache") != "hit" {
		t.Fatal("second query was not a cache hit")
	}

	w := do(h, "POST", "/append", appendBody(t, [][]int{{1, 2, 1}, {0, 0, 0}}, []float64{10, 5}))
	if w.Code != http.StatusOK {
		t.Fatalf("append = %d: %s", w.Code, w.Body.String())
	}
	var st writer.Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 || st.Loads != 1 {
		t.Fatalf("append status = %+v", st)
	}
	if got := s.Generation(); got != 2 {
		t.Fatalf("server generation = %d after publish, want 2", got)
	}
	if w := do(h, "GET", "/query?q="+qSex, ""); w.Header().Get("X-Statd-Cache") != "miss" {
		t.Fatal("publish did not invalidate the result cache")
	}

	// A load that fails answers the typed error, not 200.
	published := wr.Acquire()
	defer published.Release()
	inj := fault.New(fault.Schedule{Seed: 1, Points: []string{fault.PointWriterPublish}, Rate: 1, Mode: fault.Error})
	req := httptest.NewRequest("POST", "/append", strings.NewReader(appendBody(t, [][]int{{3, 1, 0}}, []float64{2})))
	failed := httptest.NewRecorder()
	h.ServeHTTP(failed, req.WithContext(fault.WithInjector(req.Context(), inj)))
	if failed.Code != http.StatusInternalServerError {
		t.Fatalf("faulted append = %d, want 500: %s", failed.Code, failed.Body.String())
	}
	if e := decodeErr(t, failed); e.Code != "fault" {
		t.Fatalf("faulted append envelope = %+v, want code fault", e)
	}

	// The next clean append is the next generation, holding its rows and
	// none of the refused append's.
	rows, vals := [][]int{{2, 0, 1}}, []float64{7}
	w = do(h, "POST", "/append", appendBody(t, rows, vals))
	if w.Code != http.StatusOK {
		t.Fatalf("append after a failed one = %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 3 || st.Loads != 2 {
		t.Fatalf("status after a failed and a clean append = %+v, want generation 3 and 2 loads", st)
	}
	want := published.Set().Clone()
	if _, err := want.AppendRowsCtx(context.Background(), rows, vals); err != nil {
		t.Fatal(err)
	}
	now := wr.Acquire()
	defer now.Release()
	if now.Generation() != 3 || !now.Set().Identical(want) {
		t.Fatalf("writer at generation %d does not hold the clean append's rows alone", now.Generation())
	}

	// healthz carries the writer block.
	hw := do(h, "GET", "/healthz", "")
	var hz struct {
		Writer *writer.Status `json:"writer"`
	}
	if err := json.Unmarshal(hw.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Writer == nil || hz.Writer.Generation != 3 || hz.Writer.AbortedLoads == 0 {
		t.Fatalf("healthz writer = %+v", hz.Writer)
	}
}

// TestServeAppendRefusals: bad batches are 400s, a missing writer 404,
// wrong method 405.
func TestServeAppendRefusals(t *testing.T) {
	var s *Server
	wr, err := writer.Open(context.Background(), writer.Config{Card: []int{4, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	s = newTestServer(t, Config{Writer: wr})
	h := s.Handler()
	w := do(h, "POST", "/append", appendBody(t, [][]int{{9, 9, 9}}, []float64{1}))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range append = %d, want 400", w.Code)
	}
	if w := do(h, "POST", "/append", "not json"); w.Code != http.StatusBadRequest {
		t.Fatalf("non-JSON append = %d, want 400", w.Code)
	}
	if w := do(h, "GET", "/append", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET append = %d, want 405", w.Code)
	}
	bare := newTestServer(t, Config{})
	if w := do(bare.Handler(), "POST", "/append", "{}"); w.Code != http.StatusNotFound {
		t.Fatalf("append without writer = %d, want 404", w.Code)
	}
}

// TestServeAppendTooLarge: a body past the 8 MiB limit is refused whole
// as too large (413, naming the limit), not cut short and then refused
// as malformed JSON; a body at the limit is read whole.
func TestServeAppendTooLarge(t *testing.T) {
	wr, err := writer.Open(context.Background(), writer.Config{Card: []int{4, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	h := newTestServer(t, Config{Writer: wr}).Handler()
	ok := appendBody(t, [][]int{{1, 1, 1}}, []float64{1})
	over := ok + strings.Repeat(" ", maxAppendBody+1-len(ok))
	w := do(h, "POST", "/append", over)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte append = %d, want 413: %s", len(over), w.Code, w.Body.String())
	}
	if e := decodeErr(t, w); e.Code != "too_large" || !strings.Contains(e.Error, "8 MiB") {
		t.Fatalf("413 envelope = %+v, want code too_large naming the 8 MiB limit", e)
	}
	if w := do(h, "POST", "/append", over[:maxAppendBody]); w.Code != http.StatusOK {
		t.Fatalf("%d-byte append = %d, want 200: %s", maxAppendBody, w.Code, w.Body.String())
	}
	if st := wr.Status(); st.Generation != 2 {
		t.Fatalf("generation %d after one accepted append, want 2", st.Generation)
	}
}

// TestServeAppendsNeverBlockQueries: sustained appends through the
// handler while readers hammer /query — every query must complete
// successfully (no read ever waits on the write path). Run under -race
// this doubles as the serving write path's concurrency proof.
func TestServeAppendsNeverBlockQueries(t *testing.T) {
	var s *Server
	wr, err := writer.Open(context.Background(), writer.Config{
		Card:      []int{4, 3, 2},
		OnPublish: func(gen uint64) { s.SetGeneration(gen) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s = newTestServer(t, Config{Writer: wr})
	h := s.Handler()

	done := make(chan error, 3)
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; i < 50; i++ {
				w := do(h, "GET", "/query?q="+qSex, "")
				if w.Code != http.StatusOK {
					done <- fmt.Errorf("query = %d: %s", w.Code, w.Body.String())
					return
				}
			}
			done <- nil
		}()
	}
	go func() {
		for i := 0; i < 20; i++ {
			w := do(h, "POST", "/append", appendBody(t, [][]int{{1, 1, 1}}, []float64{1}))
			if w.Code != http.StatusOK {
				done <- fmt.Errorf("append = %d: %s", w.Code, w.Body.String())
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
