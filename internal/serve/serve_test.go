package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"statcube/internal/budget"
	"statcube/internal/core"
	"statcube/internal/hierarchy"
	"statcube/internal/obs"
	"statcube/internal/qlog"
	"statcube/internal/query"
	"statcube/internal/schema"
	"statcube/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Object == nil {
		obj, err := workload.NewEmployment()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Object = obj
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do runs one request through the handler and returns the recorder.
func do(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeErr(t *testing.T, w *httptest.ResponseRecorder) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, w.Body.String())
	}
	return eb
}

// qSex is the workhorse test query, URL-encoded for ?q=. The employment
// measure is a stock, so every query must pin the temporal year dim.
const qSex = "SHOW+employment+BY+sex+WHERE+year+%3D+1992"

// TestServeQueryJSON: the JSON endpoint answers correctly, normalizes
// equivalent spellings onto one cache entry, and flags hit vs miss.
func TestServeQueryJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	w := do(h, "GET", "/query?q="+qSex, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Statd-Cache"); got != "miss" {
		t.Fatalf("first request X-Statd-Cache = %q, want miss", got)
	}
	var res Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Dims, []string{"sex"}) {
		t.Fatalf("dims = %v", res.Dims)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (male/female)", len(res.Cells))
	}
	// The engine agrees with the wire result.
	obj, _ := workload.NewEmployment()
	direct, err := query.RunCtx(context.Background(), obj, "SHOW employment BY sex WHERE year = 1992")
	if err != nil {
		t.Fatal(err)
	}
	want := buildResult(res.Query, direct)
	if !reflect.DeepEqual(&res, want) {
		t.Fatalf("served result disagrees with a direct engine run:\n got %+v\nwant %+v", res, *want)
	}

	// An equivalent spelling (keyword case, whitespace, POST body) is a
	// cache hit with a byte-identical body.
	w2 := do(h, "POST", "/query", `{"q": "show  employment by sex where year=1992"}`)
	if w2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w2.Code, w2.Body.String())
	}
	if got := w2.Header().Get("X-Statd-Cache"); got != "hit" {
		t.Fatalf("equivalent spelling X-Statd-Cache = %q, want hit", got)
	}
}

// TestServeLevelNamedLikeItsDimension: a non-leaf level that carries its
// dimension's name is a different plan from the dimension's leaf, so the
// second spelling must miss the cache and answer with its own body.
func TestServeLevelNamedLikeItsDimension(t *testing.T) {
	region := hierarchy.NewBuilder("region", "city", "oakland", "fresno", "reno").
		Level("region", "west", "mountain").
		Parent("oakland", "west").
		Parent("fresno", "west").
		Parent("reno", "mountain").
		MustBuild()
	obj := core.MustNew(schema.MustNew("towns", schema.Dimension{Name: "region", Class: region}),
		[]core.Measure{{Name: "pop", Func: core.Sum, Type: core.Flow}})
	for city, pop := range map[core.Value]float64{"oakland": 10, "fresno": 20, "reno": 30} {
		if err := obj.SetCell(map[string]core.Value{"region": city}, map[string]float64{"pop": pop}); err != nil {
			t.Fatal(err)
		}
	}
	h := newTestServer(t, Config{Object: obj}).Handler()

	leaf := do(h, "GET", "/query?q=SHOW+pop+BY+region", "")
	upper := do(h, "GET", "/query?q=SHOW+pop+BY+region.region", "")
	for _, w := range []*httptest.ResponseRecorder{leaf, upper} {
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	if got := upper.Header().Get("X-Statd-Cache"); got != "miss" {
		t.Fatalf("region.region after region: X-Statd-Cache = %q, want miss", got)
	}
	var leafRes, upperRes Result
	if err := json.Unmarshal(leaf.Body.Bytes(), &leafRes); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(upper.Body.Bytes(), &upperRes); err != nil {
		t.Fatal(err)
	}
	if len(leafRes.Cells) != 3 || len(upperRes.Cells) != 2 {
		t.Fatalf("cells: region %d, region.region %d; want 3 and 2", len(leafRes.Cells), len(upperRes.Cells))
	}
}

// TestServeQueryBinaryRoundTrip: the compact endpoint returns the same
// result the JSON endpoint does.
func TestServeQueryBinaryRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	const qProf = "SHOW+employment+BY+profession+WHERE+year+%3D+1992"
	wj := do(h, "GET", "/query?q="+qProf, "")
	wb := do(h, "GET", "/query.bin?q="+qProf, "")
	if wj.Code != http.StatusOK || wb.Code != http.StatusOK {
		t.Fatalf("statuses %d/%d", wj.Code, wb.Code)
	}
	var fromJSON Result
	if err := json.Unmarshal(wj.Body.Bytes(), &fromJSON); err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeBinary(wb.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fromBin.Query = fromJSON.Query // JSON carries the query text; compare the rest
	fromJSONNoQ := fromJSON
	if !reflect.DeepEqual(&fromJSONNoQ, fromBin) {
		t.Fatalf("binary and JSON results disagree:\n%+v\n%+v", fromJSONNoQ, fromBin)
	}
	if got := wb.Header().Get("X-Statd-Cache"); got != "hit" {
		t.Fatalf("binary after JSON X-Statd-Cache = %q, want hit (same plan key)", got)
	}
}

// TestServeBadQuery: parse and resolution failures are 400 with the
// "query" class — and are never admitted into the cache.
func TestServeBadQuery(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, target := range []string{
		"/query",                         // missing q
		"/query?q=SELECT+*+FROM+x",       // not the concise language
		"/query?q=SHOW+nope+BY+sex",      // unknown measure
		"/query?q=SHOW+employment+BY+zz", // unknown name
	} {
		w := do(h, "GET", target, "")
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", target, w.Code)
		}
		if eb := decodeErr(t, w); eb.Code != "query" {
			t.Fatalf("%s: code %q, want query", target, eb.Code)
		}
	}
	if st := s.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("bad queries were cached: %+v", st)
	}
}

// TestServeRefusesDimensionNamedTwice: a dimension named twice in BY is
// a 400 even after its deduplicated form is cached — the two texts are
// not the same plan, so they must never share a cache entry.
func TestServeRefusesDimensionNamedTwice(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	do(h, "GET", "/query?q="+qSex, "")
	if w := do(h, "GET", "/query?q="+qSex, ""); w.Header().Get("X-Statd-Cache") != "hit" {
		t.Fatalf("BY sex was not cached")
	}
	for _, q := range []string{
		"SHOW+employment+BY+sex%2C+sex+WHERE+year+%3D+1992",
		"SHOW+employment+BY+sex%2C+sex.sex+WHERE+year+%3D+1992",
	} {
		w := do(h, "GET", "/query?q="+q, "")
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (X-Statd-Cache %q), want 400", q, w.Code, w.Header().Get("X-Statd-Cache"))
		}
		if eb := decodeErr(t, w); !strings.Contains(eb.Error, "named twice in BY") {
			t.Fatalf("%s: error %q does not say the dimension is named twice in BY", q, eb.Error)
		}
	}
}

// TestServeOneQueryOneRecord: a miss evaluates the query it parsed once —
// one query.queries increment and one qlog record of kind "query"
// carrying the text — and a hit evaluates nothing.
func TestServeOneQueryOneRecord(t *testing.T) {
	rec := qlog.Default()
	rec.Reset()
	rec.SetEnabled(true)
	t.Cleanup(rec.Reset)
	h := newTestServer(t, Config{}).Handler()
	for _, want := range []struct {
		cache   string
		queries int64
		records int
	}{{"miss", 1, 1}, {"hit", 0, 0}} {
		before, seen := obs.Default().Snapshot(), len(rec.Snapshot())
		w := do(h, "GET", "/query?q="+qSex, "")
		if got := w.Header().Get("X-Statd-Cache"); w.Code != http.StatusOK || got != want.cache {
			t.Fatalf("status %d cache %q, want 200 %q", w.Code, got, want.cache)
		}
		if n := obs.Default().Snapshot().Sub(before).Counters["query.queries"]; n != want.queries {
			t.Errorf("%s: query.queries +%d, want +%d", want.cache, n, want.queries)
		}
		recs := rec.Snapshot()[seen:]
		if len(recs) != want.records {
			t.Fatalf("%s: %d qlog records, want %d", want.cache, len(recs), want.records)
		}
		for _, r := range recs {
			if r.Kind != "query" || r.Text != "SHOW employment BY sex WHERE year = 1992" {
				t.Errorf("%s: record kind %q text %q", want.cache, r.Kind, r.Text)
			}
		}
	}
}

// TestServeShedsWhenLedgerHot: a serving ledger smaller than the
// admission reservation refuses every request with 429/"overloaded",
// and the ledger drains to zero.
func TestServeShedsWhenLedgerHot(t *testing.T) {
	s := newTestServer(t, Config{AdmitBytes: 1 << 20, MaxBytes: 1 << 10})
	h := s.Handler()
	w := do(h, "GET", "/query?q="+qSex, "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if eb := decodeErr(t, w); eb.Code != "overloaded" {
		t.Fatalf("code %q, want overloaded", eb.Code)
	}
	if got := s.Governor().BytesReserved(); got != 0 {
		t.Fatalf("ledger holds %d bytes after shed, want 0", got)
	}
}

// TestServeShedsAtMaxInflight: with one slot held, a concurrent request
// is refused rather than queued.
func TestServeShedsAtMaxInflight(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	release, err := s.adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w := do(s.Handler(), "GET", "/query?q="+qSex, "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	release()
	if got := s.Governor().BytesReserved(); got != 0 {
		t.Fatalf("ledger holds %d bytes after release, want 0", got)
	}
	w2 := do(s.Handler(), "GET", "/query?q="+qSex, "")
	if w2.Code != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", w2.Code)
	}
}

// TestServePreCanceledContextDrainsLedger: a request whose context is
// already done is refused with the cancellation taxonomy and charges
// nothing — the ledger fully drains.
func TestServePreCanceledContextDrainsLedger(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.adm.admit(ctx); !budget.IsCanceled(err) {
		t.Fatalf("admit(pre-canceled) = %v, want ErrCanceled", err)
	}
	req := httptest.NewRequest("GET", "/query?q="+qSex, nil).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", w.Code)
	}
	if eb := decodeErr(t, w); eb.Code != "canceled" {
		t.Fatalf("code %q, want canceled", eb.Code)
	}
	if got := s.Governor().BytesReserved(); got != 0 {
		t.Fatalf("ledger holds %d bytes after pre-canceled request, want 0", got)
	}
	if st := s.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("pre-canceled request was cached: %+v", st)
	}
}

// TestServeGenerationInvalidation: SetGeneration with a new snapshot
// generation drops the cache; re-setting the same one does not.
func TestServeGenerationInvalidation(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	warm := func() *httptest.ResponseRecorder {
		return do(h, "GET", "/query?q="+qSex, "")
	}
	warm()
	if w := warm(); w.Header().Get("X-Statd-Cache") != "hit" {
		t.Fatalf("expected warm hit")
	}
	s.SetGeneration(1)
	if w := warm(); w.Header().Get("X-Statd-Cache") != "miss" {
		t.Fatalf("generation bump did not invalidate")
	}
	s.SetGeneration(1) // unchanged: keep the cache
	if w := warm(); w.Header().Get("X-Statd-Cache") != "hit" {
		t.Fatalf("unchanged generation must not invalidate")
	}
	if w := do(h, "GET", "/healthz", ""); !strings.Contains(w.Body.String(), `"generation":1`) {
		t.Fatalf("healthz does not report the generation: %s", w.Body.String())
	}
}

// TestServeInvalidateEndpoint: POST /invalidate drops the cache; GET is
// refused.
func TestServeInvalidateEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	do(h, "GET", "/query?q="+qSex, "")
	if w := do(h, "GET", "/invalidate", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /invalidate: status %d, want 405", w.Code)
	}
	if w := do(h, "POST", "/invalidate", ""); w.Code != http.StatusOK {
		t.Fatalf("POST /invalidate: status %d", w.Code)
	}
	if st := s.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("invalidate endpoint left entries: %+v", st)
	}
}

// TestServeTimeout: the per-request deadline surfaces as 504/"canceled"
// and drains the ledger.
func TestServeTimeout(t *testing.T) {
	s := newTestServer(t, Config{Timeout: time.Nanosecond})
	w := do(s.Handler(), "GET", "/query?q="+qSex, "")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", w.Code, w.Body.String())
	}
	if got := s.Governor().BytesReserved(); got != 0 {
		t.Fatalf("ledger holds %d bytes after deadline, want 0", got)
	}
}

// TestListenAndServe: the lifecycle handle serves real connections and
// shuts down cleanly.
func TestListenAndServe(t *testing.T) {
	s := newTestServer(t, Config{})
	hs, err := ListenAndServe("127.0.0.1:0", s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + hs.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + hs.Addr().String() + "/healthz"); err == nil {
		t.Fatalf("server still answering after Shutdown")
	}
}

// TestClassify pins the error→(status, class) table.
func TestClassify(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{ErrOverloaded, 429, "overloaded"},
		{budget.ErrBudgetExceeded, 429, "budget"},
		{budget.ErrCanceled, 504, "canceled"},
		{errors.New("anything else"), 400, "query"},
	}
	for _, c := range cases {
		status, code := classify(c.err)
		if status != c.status || code != c.code {
			t.Fatalf("classify(%v) = (%d, %q), want (%d, %q)", c.err, status, code, c.status, c.code)
		}
	}
}

// BenchmarkHandlerCachedHit measures the full warm-path request cost —
// admission, parse, normalize, cache hit, pre-encoded write — which is
// what bounds the daemon's cached-plan throughput. The load harness
// measures the same path through real HTTP; this strips the socket.
func BenchmarkHandlerCachedHit(b *testing.B) {
	obj, err := workload.NewEmployment()
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Object: obj})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	warm := do(h, "GET", "/query?q="+qSex, "")
	if warm.Code != http.StatusOK {
		b.Fatalf("warmup status %d", warm.Code)
	}
	req := httptest.NewRequest("GET", "/query?q="+qSex, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.StopTimer()
	if st := s.Cache().Stats(); st.Hits < int64(b.N) {
		b.Fatalf("hits = %d, want >= %d (the loop must ride the cache)", st.Hits, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}
