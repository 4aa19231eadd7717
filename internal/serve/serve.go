// Package serve is the engine's serving layer: a concurrent HTTP query
// daemon over internal/query with an admission-controlled, budget-
// bounded, generation-invalidated result cache.
//
// The paper's workload model (§3) — static data, periodic bulk loads,
// read-heavy aggregate queries — is the best case for result caching:
// between loads every repeated plan can be answered from a stored,
// pre-encoded payload. The layer composes the engine's existing
// disciplines rather than inventing new ones: per-request deadlines and
// memory flow through budget.Governor on the request context, refusals
// are the typed taxonomy (ErrOverloaded, budget.ErrBudgetExceeded,
// budget.ErrCanceled) mapped onto HTTP status codes, cache keys are the
// normalized plan identities the flight recorder already fingerprints,
// and invalidation rides the snapshot generation counter.
//
// Endpoints (see DESIGN.md "Serving layer" for the protocol):
//
//	GET/POST /query      JSON result; ?q= or JSON body {"q": "..."}
//	GET/POST /query.bin  the same result in the compact binary format
//	GET      /healthz    liveness + cache/admission stats
//	POST     /invalidate drop every cached result (admin)
//	GET      /metrics    obs registry (plus /metrics.json, /debug/pprof/)
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"statcube/internal/budget"
	"statcube/internal/core"
	"statcube/internal/fault"
	"statcube/internal/obs"
	"statcube/internal/qlog"
	"statcube/internal/query"
	"statcube/internal/writer"
)

// Config sizes a Server. Zero fields take the documented defaults.
type Config struct {
	// Object is the statistical object queries run against. Required.
	Object *core.StatObject
	// MaxInflight caps concurrently admitted requests (default 64).
	MaxInflight int
	// MaxBytes caps the serving ledger shared by admission reservations
	// and the engine's per-query memory (default 256 MiB).
	MaxBytes int64
	// AdmitBytes is the up-front ledger reservation each admitted
	// request holds (default 1 MiB); MaxBytes/AdmitBytes bounds
	// admissions when the ledger is otherwise idle.
	AdmitBytes int64
	// CacheBytes bounds the result cache's stored payloads (default
	// 64 MiB); 0 keeps the default, negative disables the bound.
	CacheBytes int64
	// Timeout is the per-request deadline (default 0: none beyond the
	// client's own).
	Timeout time.Duration
	// Writer, when set, mounts the write path: POST /append feeds it,
	// /healthz reports its Status, and the daemon should hook the
	// writer's OnPublish to SetGeneration for live cache invalidation.
	Writer *writer.Writer
}

func (c *Config) applyDefaults() {
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 256 << 20
	}
	if c.AdmitBytes == 0 {
		c.AdmitBytes = 1 << 20
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	} else if c.CacheBytes < 0 {
		c.CacheBytes = 0 // unbounded
	}
}

// cacheShards is the result cache's shard count.
const cacheShards = 16

// Serving metrics, one registration site each (serve.inflight lives in
// admission.go with the slot accounting):
//
//	serve.requests    query requests received (both encodings)
//	serve.shed        requests refused with 429 (admission or budget)
//	serve.errors      requests failed with any other error
//	serve.latency_ns  end-to-end request latency
var (
	reqCounter  = obs.Default().Counter("serve.requests")
	shedCounter = obs.Default().Counter("serve.shed")
	errCounter  = obs.Default().Counter("serve.errors")
	latencyHist = obs.Default().Histogram("serve.latency_ns")
)

// Server answers concise queries over one statistical object.
type Server struct {
	obj     *core.StatObject
	gov     *budget.Governor
	adm     *admission
	cache   *Cache
	neg     *negCache
	wr      *writer.Writer
	timeout time.Duration
	snapGen atomic.Uint64
}

// New builds a server from a config.
func New(cfg Config) (*Server, error) {
	if cfg.Object == nil {
		return nil, fmt.Errorf("serve: Config.Object is required")
	}
	cfg.applyDefaults()
	gov := budget.NewGovernor(budget.Limits{MaxBytes: cfg.MaxBytes})
	return &Server{
		obj:     cfg.Object,
		gov:     gov,
		adm:     newAdmission(cfg.MaxInflight, gov, cfg.AdmitBytes),
		cache:   NewCache(cacheShards, cfg.CacheBytes),
		neg:     newNegCache(),
		wr:      cfg.Writer,
		timeout: cfg.Timeout,
	}, nil
}

// Cache returns the server's result cache (tests and the daemon's
// generation watcher use it).
func (s *Server) Cache() *Cache { return s.cache }

// Governor returns the serving ledger.
func (s *Server) Governor() *budget.Governor { return s.gov }

// SetGeneration records the dataset's snapshot generation; a change
// invalidates the result cache — the serving half of the snapshot
// store's publish protocol: a new generation means the data may differ,
// so no result computed under the old one may be served.
func (s *Server) SetGeneration(gen uint64) {
	if s.snapGen.Swap(gen) != gen {
		s.cache.Invalidate()
		// A load can change what's valid (new categories, new names), so
		// remembered failures go with the results.
		s.neg.invalidate()
	}
}

// Generation returns the last recorded snapshot generation.
func (s *Server) Generation() uint64 { return s.snapGen.Load() }

// Handler returns the daemon's full HTTP surface: the query endpoints
// plus the obs registry (metrics, pprof) mounted alongside.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		s.handleQuery(w, r, false)
	})
	mux.HandleFunc("/query.bin", func(w http.ResponseWriter, r *http.Request) {
		s.handleQuery(w, r, true)
	})
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/invalidate", s.handleInvalidate)
	mux.HandleFunc("/append", s.handleAppend)
	metrics := obs.Handler()
	mux.Handle("/metrics", metrics)
	mux.Handle("/metrics.json", metrics)
	mux.Handle("/debug/pprof/", metrics)
	return mux
}

// errorBody is the JSON error envelope: a human message plus the typed
// class ("overloaded", "budget", "canceled", "panic", "fault",
// "corrupt", "query") so clients and the load harness branch on the
// taxonomy, never on message text.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// classify maps an error onto (HTTP status, typed class). Overload —
// the admission controller's own refusal or a budget refusal anywhere
// in the request — is 429: the request was well-formed and will succeed
// once load drains. Cancellation is 504 (the deadline did the work in),
// engine-internal failures 500, and everything else — parse errors,
// unknown names — a plain 400.
func classify(err error) (status int, code string) {
	if errors.Is(err, ErrOverloaded) {
		return http.StatusTooManyRequests, "overloaded"
	}
	switch out := qlog.Classify(err, false); out {
	case qlog.OutcomeBudget:
		return http.StatusTooManyRequests, out
	case qlog.OutcomeCanceled:
		return http.StatusGatewayTimeout, out
	case qlog.OutcomePanic, qlog.OutcomeFault, qlog.OutcomeCorrupt:
		return http.StatusInternalServerError, out
	default:
		return http.StatusBadRequest, "query"
	}
}

// writeError emits the JSON error envelope and bumps the taxonomy
// counters: 429s are sheds, the rest errors.
func writeError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	if obs.On() {
		if status == http.StatusTooManyRequests {
			shedCounter.Inc()
		} else {
			errCounter.Inc()
		}
	}
	writeErrorEnvelope(w, status, code, err.Error())
}

// writeErrorEnvelope emits one typed error envelope.
func writeErrorEnvelope(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg, Code: code})
}

// negCacheable reports whether an error may enter the negative cache:
// only plain caller errors (400) qualify. Budget refusals, overload,
// cancellation and internal failures are moment-dependent — caching
// them would turn transient pressure into a sticky answer.
func negCacheable(status int) bool { return status == http.StatusBadRequest }

// noteFailure records a query-shaped failure in the negative cache when
// it qualifies, then writes the normal error response.
func (s *Server) noteFailure(w http.ResponseWriter, qtext string, err error, now time.Time) {
	if status, code := classify(err); negCacheable(status) {
		s.neg.put(qtext, status, code, err.Error(), now)
	}
	writeError(w, err)
}

// queryText extracts the query from ?q= or a JSON body {"q": "..."}.
func queryText(r *http.Request) (string, error) {
	if q := r.URL.Query().Get("q"); q != "" {
		return q, nil
	}
	if r.Body == nil {
		return "", fmt.Errorf("serve: missing query: pass ?q= or a JSON body {\"q\": \"...\"}")
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		return "", fmt.Errorf("serve: reading request body: %w", err)
	}
	var req struct {
		Q string `json:"q"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("serve: request body is not JSON {\"q\": \"...\"}: %w", err)
		}
	}
	if req.Q == "" {
		return "", fmt.Errorf("serve: missing query: pass ?q= or a JSON body {\"q\": \"...\"}")
	}
	return req.Q, nil
}

// begin is the preamble every engine-touching request shares: count it,
// derive the deadline- and governor-carrying context, take an admission
// slot. When ok is false the typed refusal has been written. The handler
// defers done either way: it observes the request's latency and gives
// back whatever begin took.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, start time.Time) (ctx context.Context, done func(), ok bool) {
	if obs.On() {
		reqCounter.Inc()
	}
	done = func() { s.observeLatency(start) }
	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	if s.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
	}
	ctx = budget.WithGovernor(ctx, s.gov)
	release, err := s.adm.admit(ctx)
	if err != nil {
		cancel()
		writeError(w, err)
		return nil, done, false
	}
	return ctx, func() { s.observeLatency(start); release(); cancel() }, true
}

// handleQuery is the request path: admit, parse and normalize once,
// answer from the cache or fill by evaluating the already-parsed query,
// write the pre-encoded payload.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, binary bool) {
	//lint:ignore nodeterm feeds only the serve.latency_ns histogram, which no baseline diffs
	start := time.Now()
	ctx, done, ok := s.begin(w, r, start)
	defer done()
	if !ok {
		return
	}
	if err := fault.Hit(ctx, fault.PointServeHandler); err != nil {
		writeError(w, err)
		return
	}

	qtext, err := queryText(r)
	if err != nil {
		writeError(w, err)
		return
	}
	// A query text that failed recently fails identically now — answer
	// the retry loop from memory, skipping parse and bind entirely.
	if e, ok := s.neg.get(qtext, start); ok {
		if obs.On() {
			negHitsCounter.Inc()
			errCounter.Inc()
		}
		w.Header().Set("X-Statd-Cache", "neg")
		writeErrorEnvelope(w, e.status, e.code, e.msg)
		return
	}
	q, err := query.Parse(qtext)
	if err != nil {
		s.noteFailure(w, qtext, err, start)
		return
	}
	_, key, err := query.Normalize(s.obj, q)
	if err != nil {
		s.noteFailure(w, qtext, err, start)
		return
	}

	pay, hit, err := s.cache.GetOrFill(ctx, key, func(ctx context.Context) (*payload, error) {
		res, rerr := query.EvalCtx(ctx, s.obj, q)
		if rerr != nil {
			return nil, rerr
		}
		return encodePayload(qtext, res)
	})
	if err != nil {
		s.noteFailure(w, qtext, err, start)
		return
	}

	h := w.Header()
	if hit {
		h.Set("X-Statd-Cache", "hit")
	} else {
		h.Set("X-Statd-Cache", "miss")
	}
	h.Set("X-Statd-Generation", strconv.FormatUint(s.snapGen.Load(), 10))
	if binary {
		h.Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(pay.bin)
	} else {
		h.Set("Content-Type", "application/json")
		_, _ = w.Write(pay.json)
	}
}

func (s *Server) observeLatency(start time.Time) {
	if obs.On() {
		//lint:ignore nodeterm feeds only the serve.latency_ns histogram, which no baseline diffs
		latencyHist.Observe(float64(time.Since(start).Nanoseconds()))
	}
}

// handleHealthz reports liveness plus the stats a smoke test asserts on
// — including the write path's load status when a writer is mounted.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var wst *writer.Status
	if s.wr != nil {
		st := s.wr.Status()
		wst = &st
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Status     string         `json:"status"`
		Generation uint64         `json:"generation"`
		Inflight   int            `json:"inflight"`
		Cache      Stats          `json:"cache"`
		NegEntries int            `json:"neg_entries"`
		Writer     *writer.Status `json:"writer,omitempty"`
	}{
		Status:     "ok",
		Generation: s.snapGen.Load(),
		Inflight:   s.adm.inflight(),
		Cache:      s.cache.Stats(),
		NegEntries: s.neg.entries(),
		Writer:     wst,
	})
}

// maxAppendBody is the largest POST /append body read; a longer one is
// refused whole with 413.
const maxAppendBody = 8 << 20

// appendRequest is POST /append's body: coded fact rows plus their
// measure values. decodeAppend reads it: the tags are the keys its fast
// path reads and what json.Unmarshal, which reads every other body,
// matches; Unmarshal ignores any other key.
type appendRequest struct {
	Rows [][]int   `json:"rows"`
	Vals []float64 `json:"vals"`
}

// handleAppend is the write path's HTTP face: load the batch as one
// published, durable generation and return the writer's status, or
// answer the typed error of a load that published nothing. Admission
// applies like any request — loads hold a slot so a write burst
// degrades into clean 429s, not an unbounded load queue.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	//lint:ignore nodeterm feeds only the serve.latency_ns histogram, which no baseline diffs
	start := time.Now()
	if s.wr == nil {
		http.Error(w, "no writer mounted", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, done, ok := s.begin(w, r, start)
	defer done()
	if !ok {
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAppendBody))
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		if obs.On() {
			errCounter.Inc()
		}
		writeErrorEnvelope(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("serve: append body exceeds the %d MiB limit: split the batch", maxAppendBody>>20))
		return
	}
	if err != nil {
		writeError(w, fmt.Errorf("serve: reading append body: %w", err))
		return
	}
	req, err := decodeAppend(body)
	if err != nil {
		writeError(w, fmt.Errorf("serve: append body is not JSON {\"rows\": [[...]], \"vals\": [...]}: %w", err))
		return
	}
	if err := s.wr.Append(ctx, req.Rows, req.Vals); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.wr.Status())
}

// handleInvalidate is the admin hook: POST drops every cached result.
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.cache.Invalidate()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.cache.Stats())
}

// HTTPServer is a running daemon endpoint: obs's accept-loop handle,
// which owns the listener, the http.Server and the serve loop's exit
// error, and joins all three in Shutdown/Close.
type HTTPServer = obs.Server

// ListenAndServe binds addr (":0" for ephemeral) and serves h in the
// background; stop it with Shutdown (graceful drain) or Close.
func ListenAndServe(addr string, h http.Handler) (*HTTPServer, error) {
	return obs.ListenAndServe(addr, h)
}
