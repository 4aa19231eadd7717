package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"statcube/internal/cube"
	"statcube/internal/query"
	"statcube/internal/snapshot"
	"statcube/internal/workload"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the span that caused this one (0 for an
// operation's root). Times are nanoseconds since the tracer started.
type span struct {
	Op     int    `json:"op"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The program under
// test is not instrumented: every span is taken here, around a call into
// a layer's public functions.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// record files a finished span and returns its id.
func (t *tracer) record(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{op, id, parent, name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	return id
}

// begin opens a span that end closes: for a root whose children are
// recorded while it is open.
func (t *tracer) begin(op int, name string) int {
	now := time.Now()
	return t.record(op, 0, name, now, now)
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(now.Sub(t.t0))
}

// dump writes the spans as NDJSON, one span per line.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// counts sizes the layer pass: how many operations of each kind it
// samples.
type counts struct {
	hits, misses, writes, builds int
}

var (
	fullCounts  = counts{hits: 2000, misses: 40, writes: 12, builds: 5}
	quickCounts = counts{hits: 50, misses: 5, writes: 2, builds: 1}
)

// layers runs the layer pass: it calls each layer's public functions
// directly, one operation at a time, on operations sampled from the
// workload, and files every call as a span and a sample.
type layers struct {
	tr       *tracer
	cal      *calibration
	lastTick time.Time
	samples  map[string][]sample // by span name, in operation order
	failed   []string
}

type sample struct {
	at time.Time
	ns float64
}

// timed runs fn as a child span of root and files its duration. The
// reference kernel is run first whenever its last run is a quarter of a
// second old, so every sample has one close by.
func (l *layers) timed(op, root int, name string, fn func() error) {
	if time.Since(l.lastTick) > 250*time.Millisecond {
		l.cal.tick()
		l.lastTick = time.Now()
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	l.tr.record(op, root, name, start, end)
	l.samples[name] = append(l.samples[name], sample{start, float64(end.Sub(start))})
	if err != nil && len(l.failed) < 5 {
		l.failed = append(l.failed, fmt.Sprintf("%s: %v", name, err))
	}
}

// scaled is a span name's durations on the nominal box, in ns.
func (l *layers) scaled(name string) []float64 {
	out := make([]float64, len(l.samples[name]))
	for i, s := range l.samples[name] {
		out[i] = s.ns * l.cal.factor(s.at, s.at.Add(time.Duration(s.ns)))
	}
	return out
}

// med is the median of a span name's durations, in units of per ns.
func (l *layers) med(name string, per float64) float64 { return median(l.scaled(name)) / per }

// self is the median, over operations, of parent's time minus the parts'.
func (l *layers) self(parent string, per float64, parts ...string) float64 {
	out := l.scaled(parent)
	for _, name := range parts {
		for i, ns := range l.scaled(name) {
			if i < len(out) {
				out[i] -= ns
			}
		}
	}
	return median(out) / per
}

const (
	us = 1e3
	ms = 1e6
)

// timedAllocs is timed plus the heap allocations fn made; the counters
// are read outside the span. Nothing else in the process allocates while
// the layer pass runs: the listener is idle and the pass is one goroutine.
func (l *layers) timedAllocs(op, root int, name string, fn func() error) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.timed(op, root, name, fn)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// anyCache accepts whatever X-Statd-Cache a reply carries.
const anyCache = "*"

// serveGET sends one GET through the handler and checks its outcome.
func serveGET(h http.Handler, url string, wantStatus int, wantCache string) func() error {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	return func() error {
		h.ServeHTTP(rec, req)
		if rec.Code != wantStatus || (wantCache != anyCache && rec.Header().Get("X-Statd-Cache") != wantCache) {
			return fmt.Errorf("GET %s: status %d cache %q, want %d %q", url, rec.Code, rec.Header().Get("X-Statd-Cache"), wantStatus, wantCache)
		}
		return nil
	}
}

// readPath samples the served read path: cached plans, a repeated
// invalid text, then uncached plans taken apart into parse, normalize
// and evaluate.
func (l *layers) readPath(ctx context.Context, eng *engine, hits, misses []plan, cnt counts, out map[string]float64) {
	h := eng.srv.Handler()
	obj := eng.ds.retail.Object
	invalid := queryURL(invalidTexts[0])
	l.check(serveGET(h, invalid, http.StatusBadRequest, anyCache)())

	rd := newReader(eng.url, l.cal)
	for i := 0; i < cnt.hits; i++ {
		p := hits[i%len(hits)]
		// Whatever the cache's size, the plan is in it for the next call.
		l.check(serveGET(h, p.urls[0], http.StatusOK, anyCache)())
		op := l.tr.newOp()
		root := l.tr.begin(op, "op.hit")
		l.timed(op, root, "serve.hit", serveGET(h, p.urls[0], http.StatusOK, "hit"))
		l.timed(op, root, "http.rtt", func() error {
			if _, ok := rd.get(request{url: p.urls[0], wantStatus: http.StatusOK}); !ok {
				return fmt.Errorf("round trip failed: %v", rd.errs)
			}
			return nil
		})
		l.timed(op, root, "serve.neg", serveGET(h, invalid, http.StatusBadRequest, "neg"))
		l.tr.end(root)
	}
	rd.client.CloseIdleConnections()
	// Allocations of a hit are taken over a batch: one hit is too small
	// for the counters' read to leave alone.
	calls := make([]func() error, cnt.hits)
	for i := range calls {
		calls[i] = serveGET(h, hits[0].urls[0], http.StatusOK, "hit")
	}
	l.check(serveGET(h, hits[0].urls[0], http.StatusOK, anyCache)())
	allocs, bytes := l.timedAllocs(l.tr.newOp(), 0, "serve.hit_batch", func() error {
		for _, call := range calls {
			if err := call(); err != nil {
				return err
			}
		}
		return nil
	})
	out["serve.hit_allocs"] = allocs / float64(cnt.hits)
	out["serve.hit_bytes"] = bytes / float64(cnt.hits)

	var missAllocs, evalAllocs []float64
	for i := 0; i < cnt.misses; i++ {
		p := misses[i%len(misses)]
		eng.srv.Cache().Invalidate()
		op := l.tr.newOp()
		root := l.tr.begin(op, "op.miss")
		a, _ := l.timedAllocs(op, root, "serve.miss", serveGET(h, p.urls[0], http.StatusOK, "miss"))
		missAllocs = append(missAllocs, a)
		var q *query.Query
		l.timed(op, root, "query.parse", func() (err error) {
			q, err = query.Parse(p.text)
			return err
		})
		l.timed(op, root, "query.normalize", func() error {
			_, _, err := query.Normalize(obj, q)
			return err
		})
		a, _ = l.timedAllocs(op, root, "query.eval", func() error {
			_, err := query.EvalCtx(ctx, obj, q)
			return err
		})
		evalAllocs = append(evalAllocs, a)
		l.tr.end(root)
	}
	out["http.rtt_self_us"] = l.med("http.rtt", us) - l.med("serve.hit", us)
	out["serve.hit_us"] = l.med("serve.hit", us)
	out["serve.neg_us"] = l.med("serve.neg", us)
	out["serve.miss_us"] = l.med("serve.miss", us)
	out["serve.miss_allocs"] = median(missAllocs)
	out["serve.miss_self_us"] = l.self("serve.miss", us, "query.parse", "query.normalize", "query.eval")
	out["query.parse_us"] = l.med("query.parse", us)
	out["query.normalize_us"] = l.med("query.normalize", us)
	out["query.eval_ms"] = l.med("query.eval", ms)
	out["query.eval_allocs"] = median(evalAllocs)
}

func (l *layers) check(err error) {
	if err != nil && len(l.failed) < 5 {
		l.failed = append(l.failed, err.Error())
	}
}

// writePath samples a publishing append: through the handler, through
// the writer, and as the writer's own steps on the published set. Then
// the recovery path over what was saved.
func (l *layers) writePath(ctx context.Context, eng *engine, batches []batch, cnt counts, scratch string, out map[string]float64) error {
	h := eng.srv.Handler()
	store, err := snapshot.OpenStore(filepath.Join(scratch, "layer-store"))
	if err != nil {
		return err
	}
	var encoded bytes.Buffer
	var touchedPerRow []float64
	for i := 0; i < cnt.writes; i++ {
		b := &batches[i%len(batches)]
		op := l.tr.newOp()
		root := l.tr.begin(op, "op.append")
		l.timed(op, root, "serve.append", func() error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append", bytes.NewReader(b.body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("POST /append: status %d: %s", rec.Code, rec.Body)
			}
			return nil
		})
		l.timed(op, root, "writer.append", func() error { return eng.wr.Append(ctx, b.rows, b.vals) })
		l.timed(op, root, "writer.flush", func() error {
			_, err := eng.wr.Flush(ctx)
			return err
		})
		pin := eng.wr.Acquire()
		var clone *cube.MaterializedSet
		l.timed(op, root, "cube.clone", func() error {
			clone = pin.Set().Clone()
			return nil
		})
		pin.Release()
		l.timed(op, root, "cube.delta", func() error {
			touched, err := clone.AppendRowsCtx(ctx, b.rows, b.vals)
			touchedPerRow = append(touchedPerRow, float64(touched)/float64(len(b.rows)))
			return err
		})
		l.timed(op, root, "cube.encode", func() error { return cube.EncodeMaterialized(ctx, io.Discard, clone) })
		encoded.Reset()
		if err := cube.EncodeMaterialized(ctx, &encoded, clone); err != nil {
			return err
		}
		l.timed(op, root, "snapshot.save", func() error {
			_, err := store.Save(ctx, datasetName, func(w io.Writer) error {
				_, err := w.Write(encoded.Bytes())
				return err
			})
			return err
		})
		l.tr.end(root)
	}
	reopen := filepath.Join(scratch, "layer-reopen")
	if err := copyStore(eng.storeDir, reopen); err != nil {
		return err
	}
	pin := eng.wr.Acquire()
	defer pin.Release()
	for i := 0; i < cnt.writes; i++ {
		op := l.tr.newOp()
		root := l.tr.begin(op, "op.recover")
		l.timed(op, root, "cube.decode", func() error {
			_, err := cube.DecodeMaterialized(ctx, bytes.NewReader(encoded.Bytes()))
			return err
		})
		l.timed(op, root, "snapshot.load", func() error {
			_, _, err := cube.LoadMaterialized(ctx, store, datasetName)
			return err
		})
		l.timed(op, root, "writer.open", func() error {
			rec, err := recoverStore(ctx, eng.ds, reopen)
			if err == nil && rec.gen != eng.wr.Generation() {
				err = fmt.Errorf("recovered generation %d, want %d", rec.gen, eng.wr.Generation())
			}
			return err
		})
		// A single-dimension group-by is not materialized: it is answered
		// from its smallest stored ancestor, the read path item 1 builds.
		l.timed(op, root, "cube.answer", func() error {
			_, _, err := pin.Answer(0b001)
			return err
		})
		l.tr.end(root)
	}
	out["serve.append_self_ms"] = l.self("serve.append", ms, "writer.append", "writer.flush")
	out["writer.append_us"] = l.med("writer.append", us)
	out["writer.flush_ms"] = l.med("writer.flush", ms)
	out["writer.flush_self_ms"] = l.self("writer.flush", ms, "cube.clone", "cube.delta", "cube.encode", "snapshot.save")
	out["writer.open_ms"] = l.med("writer.open", ms)
	out["cube.clone_ms"] = l.med("cube.clone", ms)
	out["cube.delta_ms"] = l.med("cube.delta", ms)
	out["cube.delta_cells_per_row"] = median(touchedPerRow)
	out["cube.encode_ms"] = l.med("cube.encode", ms)
	out["cube.decode_ms"] = l.med("cube.decode", ms)
	out["cube.answer_us"] = l.med("cube.answer", us)
	out["snapshot.save_ms"] = l.med("snapshot.save", ms)
	out["snapshot.load_self_ms"] = l.self("snapshot.load", ms, "cube.decode")
	out["snapshot.bytes_per_gen"] = float64(encoded.Len())
	return nil
}

// builds samples the cube builders on the workload's sparse input and
// on a fully dense one, and the materialization set-up pays for.
func (l *layers) builds(ctx context.Context, ds *dataset, dense *cube.Input, cnt counts, out map[string]float64) {
	builders := []struct {
		name string
		fn   func(context.Context, *cube.Input, cube.Options) (*cube.Views, error)
	}{
		{"naive", cube.BuildROLAPNaiveCtx},
		{"sp", cube.BuildROLAPSmallestParentCtx},
		{"molap", cube.BuildMOLAPCtx},
	}
	for i := 0; i < cnt.builds; i++ {
		op := l.tr.newOp()
		root := l.tr.begin(op, "op.build")
		l.timed(op, root, "cube.materialize", func() error {
			_, err := cube.MaterializeCtx(ctx, ds.base, viewMasks)
			return err
		})
		for _, b := range builders {
			out["cube.build_"+b.name+"_allocs"], _ = l.timedAllocs(op, root, "cube.build_"+b.name, func() error {
				_, err := b.fn(ctx, ds.retail.Input, cube.Options{})
				return err
			})
			l.timed(op, root, "cube.build_"+b.name+"_dense", func() error {
				_, err := b.fn(ctx, dense, cube.Options{})
				return err
			})
		}
		l.tr.end(root)
	}
	out["cube.materialize_ms"] = l.med("cube.materialize", ms)
	for _, b := range builders {
		out["cube.build_"+b.name+"_ms"] = l.med("cube.build_"+b.name, ms)
		out["cube.build_"+b.name+"_dense_ms"] = l.med("cube.build_"+b.name+"_dense", ms)
	}
}

// denseInput generates the dense builder input for a run.
func denseInput(cfg runConfig) (*cube.Input, error) {
	sz := denseSize
	if cfg.quick {
		sz = size{6, 6, 6, 2000}
	}
	r, err := workload.NewRetail(sz.products, sz.stores, sz.days, sz.facts, cfg.seed)
	if err != nil {
		return nil, err
	}
	return r.Input, nil
}
