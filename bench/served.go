package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"statcube/internal/obs"
	"statcube/internal/parallel"
	"statcube/internal/serve"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	outDir string // trace files, and scratch space removed before return
	size   size
	cal    *calibration // the reference kernel every timing is scaled by
	// quick shrinks everything that is sized for steadiness and not for
	// meaning (set-up repeats, sample counts, plan pools): the self-test
	// runs every workload in well under a second.
	quick bool
}

// setUps is how many times set-up runs: its median is the metric. The
// traced pass reports no set-up time and sets up once.
func (c runConfig) setUps() int {
	if c.quick || c.trace {
		return 1
	}
	return 3
}

func (c runConfig) pick(full, quick int) int {
	if c.quick {
		return quick
	}
	return full
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Noisy     bool              `json:"noisy"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Errors    []string          `json:"errors,omitempty"`

	values map[string]float64
}

func (r *result) noteErrs(errs ...string) {
	for _, e := range errs {
		if len(r.Errors) < 10 {
			r.Errors = append(r.Errors, e)
		}
	}
}

// expect counts one check.
func (r *result) expect(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.noteErrs(fmt.Sprintf(format, args...))
	}
}

// finish settles the verdict and picks the metrics the run reports.
// The run is noisy when the reference kernel's own time moved by more
// than a tenth from the first half of the measured stretch to the
// second: scaling takes such a move out of the numbers only in part.
func (r *result) finish(cfg runConfig, from, to time.Time) {
	if ref := cfg.cal.between(from, to); len(ref) >= 2 {
		first, second := median(ref[:len(ref)/2]), median(ref[len(ref)/2:])
		r.values["loadgen.ref_ms"] = median(ref)
		r.values["loadgen.calib_drift_pct"] = 100 * math.Abs(second-first) / first
	}
	r.Noisy = r.values["loadgen.calib_drift_pct"] > 10
	r.Correct = r.Failed == 0
	if cfg.trace {
		r.Metrics = report(perLayer, r.values)
	} else {
		r.Metrics = report(endToEnd, r.values)
	}
}

// served describes one of the three workloads that run against the
// served engine.
type served struct {
	name string
	// cacheBytes is serve's result-cache budget; 0 keeps its 64 MiB
	// default. quickCacheBytes replaces it on the self-test's tiny dataset,
	// whose results are a tenth the size.
	cacheBytes, quickCacheBytes int64
	readers                     int
	appendHz                    float64 // open-loop publishing appends during the window; 0 for none
	// traffic generates the workload's requests from the seed.
	traffic func(rng *rand.Rand, o *oracle, cfg runConfig) *traffic
	// sane, when set, checks the cache behaviour the workload is built
	// to have.
	sane func(res *result, hitRatio float64, evictions int64)
}

// traffic is a workload's generated input.
type traffic struct {
	plans  []plan
	warm   []request                   // sent once, before the window
	next   func(reader, i int) request // request i of a reader
	window []batch                     // appended on schedule during the window
	every  time.Duration               // the schedule's period
	tail   []batch                     // appended back to back after the window
	hits   []plan                      // layer pass: plans sampled as cache hits
	misses []plan                      // layer pass: plans sampled as cache misses
	shared atomic.Int64                // cold_read's cursor across readers
	acked  atomic.Int64                // window batches answered so far
	deltas [][]map[string]float64      // per plan, per window batch: the cells the batch adds
}

func valid(plans []plan, i int, check bool) request {
	return request{url: plans[i].urls[0], plan: i, wantStatus: http.StatusOK, check: check}
}

// tailBatches is how many appends follow a read-only window: enough for
// a steady median of the write path's cost on the state the window left.
const tailBatches = 30

const batchRows = 500

var servedWorkloads = []served{
	{
		name:    "warm_read",
		readers: 2,
		traffic: func(rng *rand.Rand, o *oracle, cfg runConfig) *traffic {
			tf := &traffic{plans: newPlans(rng, o, 64)}
			for i := range tf.plans {
				tf.plans[i].respell()
				tf.warm = append(tf.warm, valid(tf.plans, i, false))
			}
			var invalid []request
			for _, text := range invalidTexts {
				invalid = append(invalid, request{url: queryURL(text), plan: -1, wantStatus: http.StatusBadRequest})
			}
			tf.warm = append(tf.warm, invalid...)
			// Each reader cycles through its own fixed sequence: Zipf(1.1)
			// over the plans, every fourth request respelt, 2% invalid.
			seqs := make([][]request, 2)
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(tf.plans)-1))
			for r := range seqs {
				seqs[r] = make([]request, 1<<15)
				for i := range seqs[r] {
					if rng.Float64() < 0.02 {
						seqs[r][i] = invalid[rng.Intn(len(invalid))]
						continue
					}
					p := int(zipf.Uint64())
					req := valid(tf.plans, p, i%100 == 0)
					if i%4 == 3 {
						req.url = tf.plans[p].urls[1+(i/4)%2]
					}
					seqs[r][i] = req
				}
			}
			tf.next = func(reader, i int) request { return seqs[reader][i%len(seqs[reader])] }
			tf.hits, tf.misses = tf.plans, tf.plans
			return tf
		},
		sane: func(res *result, hitRatio float64, _ int64) {
			res.expect(hitRatio >= 0.97, "warm_read: cache hit ratio %.4f, want >= 0.97", hitRatio)
		},
	},
	{
		name:       "cold_read",
		cacheBytes: 1 << 18, quickCacheBytes: 1 << 14,
		readers: 2,
		traffic: func(rng *rand.Rand, o *oracle, cfg runConfig) *traffic {
			// Plans are handed out once each across both readers. The pool
			// outlasts any window this box can get through; were it ever to
			// wrap, the 256 KiB cache (some 150 results) has long evicted
			// the first plans.
			n := cfg.pick(int(cfg.window.Seconds()*400)+200, 150)
			tf := &traffic{plans: newPlans(rng, o, n)}
			spare := len(tf.plans) - 72
			for i := spare; i < spare+8; i++ {
				tf.warm = append(tf.warm, valid(tf.plans, i, false))
			}
			tf.next = func(_, _ int) request {
				return valid(tf.plans, int(tf.shared.Add(1)-1)%spare, true)
			}
			// Eight plans' results fit the cache side by side; all 64 do not.
			tf.hits, tf.misses = tf.plans[spare+8:spare+16], tf.plans[spare+8:]
			return tf
		},
		sane: func(res *result, hitRatio float64, evictions int64) {
			res.expect(hitRatio == 0 && evictions > 0, "cold_read: cache hit ratio %.4f with %d evictions, want 0 with some", hitRatio, evictions)
		},
	},
	{
		name:     "mixed_append",
		readers:  2,
		appendHz: 4,
		traffic: func(rng *rand.Rand, o *oracle, cfg runConfig) *traffic {
			// The readers cycle over 8 plans at a time and move to the next
			// 8 of the 64 whenever a publish is acknowledged, so each publish
			// costs 8 refill misses and the refill cost of a run is that of
			// all 64 plans, not of whichever 8 the seed drew.
			const at = 8
			tf := &traffic{plans: newPlans(rng, o, 8*at)}
			for i := 0; i < at; i++ {
				tf.warm = append(tf.warm, valid(tf.plans, i, false))
			}
			tf.next = func(reader, i int) request {
				block := int(tf.acked.Load()) % (len(tf.plans) / at)
				return valid(tf.plans, block*at+(i+reader*at/2)%at, true)
			}
			tf.hits, tf.misses = tf.plans[:at], tf.plans
			return tf
		},
	},
}

// newTraffic generates a served workload's traffic, appends included.
func (w *served) newTraffic(cfg runConfig, o *oracle, card []int) (*traffic, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	tf := w.traffic(rng, o, cfg)
	var err error
	if w.appendHz > 0 {
		hz := w.appendHz
		if cfg.quick {
			hz = 10 // a 300 ms window still publishes
		}
		tf.every = time.Duration(float64(time.Second) / hz)
		n := int(cfg.window.Seconds() * hz)
		if n < 1 {
			n = 1
		}
		if tf.window, err = newBatches(rng, card, n, batchRows); err != nil {
			return nil, err
		}
		tf.deltas = make([][]map[string]float64, len(tf.plans))
		for p := range tf.plans {
			for b := range tf.window {
				tf.deltas[p] = append(tf.deltas[p], o.fold(tf.plans[p].spec, tf.window[b].rows, tf.window[b].vals))
			}
		}
	} else if tf.tail, err = newBatches(rng, card, cfg.pick(tailBatches, 2), batchRows); err != nil {
		return nil, err
	}
	return tf, nil
}

// trafficOut is what a window's clients recorded.
type trafficOut struct {
	readers []*reader
	app     *appender
}

// run drives the window: the readers and, when the workload has one, the
// scheduled appender, each on its own connection.
func (tf *traffic) run(eng *engine, cal *calibration, readers int, window time.Duration, tr *tracer, traceAfter time.Duration) (*trafficOut, error) {
	out := &trafficOut{app: newAppender(eng.url, cal)}
	for i := 0; i < readers; i++ {
		out.readers = append(out.readers, newReader(eng.url, cal))
	}
	tasks := readers
	if len(tf.window) > 0 {
		tasks++
	}
	var sent atomic.Int64
	tf.acked.Store(0)
	start := time.Now()
	err := parallel.Stage{Name: "bench.traffic", Workers: tasks}.ForEach(tasks, func(task int) error {
		if task == readers {
			out.app.loop(start, tf.every, tf.window, &sent, &tf.acked)
			return nil
		}
		out.readers[task].loop(start, window, func(i int) request { return tf.next(task, i) }, &sent, tr, traceAfter)
		return nil
	})
	for _, r := range out.readers {
		r.client.CloseIdleConnections()
	}
	return out, err
}

// wireResult is serve's JSON answer, as a client decodes it.
type wireResult struct {
	Dims     []string `json:"dims"`
	Measures []string `json:"measures"`
	Cells    []struct {
		Coords []string  `json:"coords"`
		Values []float64 `json:"values"`
	} `json:"cells"`
}

// matches checks one served body against the oracle: the plan over the
// dataset, or over the dataset plus a prefix of the window's batches no
// longer than what had been sent when the body was first seen. Today
// /query answers from the object loaded at boot, so the prefix is always
// empty; the check stays right when reads start following the writer.
func (tf *traffic) matches(o *oracle, planIdx int, s sighting) error {
	var got wireResult
	if err := json.Unmarshal(s.body, &got); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	coords := make([][]string, len(got.Cells))
	values := make([][]float64, len(got.Cells))
	for i, c := range got.Cells {
		coords[i], values[i] = c.Coords, c.Values
	}
	want := o.answer(tf.plans[planIdx].spec)
	err := want.equal(got.Dims, got.Measures, coords, values)
	for k := 0; err != nil && tf.deltas != nil && k < int(s.sent) && k < len(tf.deltas[planIdx]); k++ {
		for cell, v := range tf.deltas[planIdx][k] {
			want.cells[cell] += v
		}
		if want.equal(got.Dims, got.Measures, coords, values) == nil {
			return nil
		}
	}
	return err
}

// verify checks every distinct body the readers kept.
func (tf *traffic) verify(o *oracle, readers []*reader, res *result) error {
	type item struct {
		plan int
		s    sighting
	}
	var items []item
	for _, r := range readers {
		for p, ss := range r.seen {
			for _, s := range ss {
				items = append(items, item{p, s})
			}
		}
	}
	errs := make([]error, len(items))
	if err := (parallel.Stage{Name: "bench.verify"}).ForEach(len(items), func(i int) error {
		errs[i] = tf.matches(o, items[i].plan, items[i].s)
		return nil
	}); err != nil {
		return err
	}
	for i, err := range errs {
		res.expect(err == nil, "%s: %v", tf.plans[items[i].plan].text, err)
	}
	return nil
}

// setUp generates the dataset and brings the engine up over it, warm-up
// traffic included, and reports how long the system's part took. Traffic
// is generated once, from the first dataset (every dataset of a seed is
// the same), and is the benchmark's own work, outside the time.
func (w *served) setUp(ctx context.Context, cfg runConfig, dir string, tf **traffic) (*engine, float64, error) {
	var ds *dataset
	took, err := cfg.cal.seconds(func() (err error) {
		ds, err = newDataset(cfg.size, cfg.seed)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	if ds.oracle, err = newOracle(ds.retail); err != nil {
		return nil, 0, err
	}
	if *tf == nil {
		if *tf, err = w.newTraffic(cfg, ds.oracle, ds.base.Card); err != nil {
			return nil, 0, err
		}
	}
	cacheBytes := w.cacheBytes
	if cfg.quick {
		cacheBytes = w.quickCacheBytes
	}
	var eng *engine
	up, err := cfg.cal.seconds(func() (err error) {
		if eng, err = startEngine(ctx, ds, dir, cacheBytes); err != nil {
			return err
		}
		rd := newReader(eng.url, cfg.cal)
		for _, req := range (*tf).warm {
			rd.get(req)
		}
		rd.client.CloseIdleConnections()
		if rd.failed > 0 {
			_ = eng.stop() // the warm-up failure is the one to report
			return fmt.Errorf("warm-up: %v", rd.errs)
		}
		return nil
	})
	return eng, took + up, err
}

// restart copies the engine's store directory and opens a second writer
// on the copy n times, checking each time that it recovers the expected
// generation and grand total. It returns what was recovered and the
// median time of writer.Open, scaled.
func restart(ctx context.Context, cfg runConfig, eng *engine, dir string, n int, wantGen uint64, wantTotal float64, res *result) (recovered, float64, error) {
	if err := copyStore(eng.storeDir, dir); err != nil {
		return recovered{}, 0, err
	}
	recs := make([]recovered, n)
	for i := range recs {
		if i%3 == 0 {
			cfg.cal.tick()
		}
		var err error
		if recs[i], err = recoverStore(ctx, eng.ds, dir); err != nil {
			return recovered{}, 0, err
		}
		res.expect(recs[i].gen == wantGen && recs[i].total == wantTotal,
			"recovered generation %d with total %v, want %d with %v", recs[i].gen, recs[i].total, wantGen, wantTotal)
	}
	cfg.cal.tick()
	took := make([]float64, n)
	for i, rec := range recs {
		took[i] = rec.took.Seconds() * cfg.cal.factor(rec.at, rec.at.Add(rec.took))
	}
	return recs[n-1], median(took), nil
}

// heapMiB is the live heap after a collection.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// cacheDelta is what the cache and the engine counters did over a window.
type cacheDelta struct {
	stats serve.Stats
	obs   obs.Snapshot
}

func mark(eng *engine) cacheDelta {
	return cacheDelta{eng.srv.Cache().Stats(), obs.Default().Snapshot()}
}

func (before cacheDelta) until(eng *engine) (hitRatio float64, misses, evictions int64, counters map[string]int64) {
	now := mark(eng)
	hits := now.stats.Hits + now.stats.Coalesced - before.stats.Hits - before.stats.Coalesced
	misses = now.stats.Misses - before.stats.Misses
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	counters = now.obs.Sub(before.obs).Counters
	return hitRatio, misses, counters["cache.evictions"], counters
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// run measures a served workload, or, with cfg.trace, takes its
// per-layer numbers.
func (w *served) run(ctx context.Context, cfg runConfig) (res *result, err error) {
	res = &result{Workload: w.name, values: map[string]float64{}}
	scratch, err := os.MkdirTemp(cfg.outDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-up is repeated and its median reported; the last engine stays up.
	var eng *engine
	var tf *traffic
	var setups []float64
	for i := 0; i < cfg.setUps(); i++ {
		if eng != nil {
			if err := eng.stop(); err != nil {
				return nil, err
			}
		}
		var took float64
		eng, took, err = w.setUp(ctx, cfg, filepath.Join(scratch, fmt.Sprintf("store-%d", i)), &tf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer func() {
		if serr := eng.stop(); err == nil {
			err = serr
		}
	}()
	res.values["setup_s"] = median(setups)
	orc := eng.ds.oracle

	// Restart recovery is timed now, on the store set-up has just made. A
	// restarted daemon is a fresh process; after the window this one is
	// not, and the same reopen took anything from 3.3 to 4.9 ms depending
	// on the garbage the window happened to leave.
	_, res.values["recover_s"], err = restart(ctx, cfg, eng, filepath.Join(scratch, "reopen-before"), cfg.pick(45, 2), 1, total(eng.ds.base.Vals), res)
	if err != nil {
		return nil, err
	}

	window, traceAfter := cfg.window, time.Duration(0)
	var tr *tracer
	if cfg.trace {
		// Half the time goes to traffic, traced from its midpoint; the rest
		// is the layer pass's.
		window, traceAfter, tr = cfg.window/2, cfg.window/4, newTracer()
	}
	runtime.GC()
	before := mark(eng)
	from := time.Now()
	out, err := tf.run(eng, cfg.cal, w.readers, window, tr, traceAfter)
	if err != nil {
		return nil, err
	}
	to := time.Now()
	hitRatio, misses, evictions, counters := before.until(eng)
	res.values["heap_mb"] = heapMiB()

	// The window's reads.
	var clients [][]float64
	for _, r := range out.readers {
		clients = append(clients, r.scaled())
	}
	sum := summarize(clients)
	res.values["read_p50_ms"], res.values["read_p95_ms"], res.values["read_qps"] = sum.p50ms, sum.p95ms, sum.qps
	var shed int
	var missMs float64
	for _, r := range out.readers {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.noteErrs(r.errs...)
		shed += r.shed
		missMs += r.missMs
	}
	res.expect(shed == 0, "%d requests shed with 429", shed)
	if w.sane != nil {
		w.sane(res, hitRatio, evictions)
	}
	if err := tf.verify(orc, out.readers, res); err != nil {
		return nil, err
	}

	// Appends: the window's own, or a tail after a read-only window.
	app := out.app
	if len(tf.tail) > 0 {
		app.drain(tf.tail)
	}
	res.Attempted += app.attempted
	res.Failed += app.failed
	res.noteErrs(app.errs...)
	acks := app.scaled()
	res.values["write_p50_ms"] = median(acks)
	for i, g := range app.gens {
		res.expect(g == uint64(i)+2, "append %d acknowledged as generation %d, want %d", i, g, i+2)
	}
	app.client.CloseIdleConnections()

	// Restart recovery, once more, on a copy of the store as it stands:
	// the writer has not been closed, so this is what a killed process
	// leaves. What the client was told is durable must be there.
	rec, _, err := restart(ctx, cfg, eng, filepath.Join(scratch, "reopen-after"), 2, uint64(len(app.gens))+1, total(eng.ds.base.Vals)+app.acked, res)
	if err != nil {
		return nil, err
	}
	genBytes, err := newestGenBytes(eng.store)
	if err != nil {
		return nil, err
	}
	res.values["store_bytes_per_cell"] = float64(genBytes) / float64(rec.baseCells)

	if cfg.trace {
		res.values["serve.cache_hit_ratio"] = hitRatio
		res.values["serve.cache_misses"] = float64(misses)
		res.values["serve.cache_evictions"] = float64(evictions)
		res.values["serve.shed"] = float64(shed)
		res.values["core.cells_scanned_per_query"] = ratio(counters["core.cells_scanned"], counters["query.queries"])
		res.values["core.groups_per_query"] = ratio(counters["core.groups_emitted"], counters["query.queries"])
		res.values["cube.view_hit_ratio"] = ratio(counters["cube.view_hits"], counters["cube.view_hits"]+counters["cube.view_misses"])
		res.values["writer.retries"] = float64(counters["writer.retries"])
		if len(tf.window) > 0 {
			res.values["serve.refill_ms"] = missMs * cfg.cal.factor(from, to) / float64(len(tf.window))
			res.values["serve.append_max_ms"] = pct(acks, 100)
			res.values["loadgen.late_ms"] = pct(app.lateMs, 95)
			res.values["writer.write_amp"] = ratio(counters["snapshot.bytes_written"], int64(len(tf.window)*batchRows*4*8))
		}
		res.values["trace.overhead_pct"] = traceOverhead(out.readers)
		if err := layerPass(ctx, cfg, eng, tf.hits, tf.misses, tr, scratch, res); err != nil {
			return nil, err
		}
	}
	res.finish(cfg, from, to)
	return res, nil
}

// traceOverhead compares the round-trip median with spans recorded
// against the median without, in one window.
func traceOverhead(readers []*reader) float64 {
	var plain, traced []float64
	for _, r := range readers {
		if r.tracedAt < 0 {
			return 0
		}
		lat := r.scaled()
		plain = append(plain, lat[:r.tracedAt]...)
		traced = append(traced, lat[r.tracedAt:]...)
	}
	if len(plain) == 0 || len(traced) == 0 {
		return 0
	}
	return 100 * (median(traced) - median(plain)) / median(plain)
}

// layerPass runs the per-layer sampling over a live engine and dumps
// the spans.
func layerPass(ctx context.Context, cfg runConfig, eng *engine, hits, misses []plan, tr *tracer, scratch string, res *result) error {
	l := &layers{tr: tr, cal: cfg.cal, samples: map[string][]sample{}}
	cnt := fullCounts
	if cfg.quick {
		cnt = quickCounts
	}
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	batches, err := newBatches(rng, eng.ds.base.Card, cnt.writes, batchRows)
	if err != nil {
		return err
	}
	dense, err := denseInput(cfg)
	if err != nil {
		return err
	}
	l.readPath(ctx, eng, hits, misses, cnt, res.values)
	if err := l.writePath(ctx, eng, batches, cnt, scratch, res.values); err != nil {
		return err
	}
	l.builds(ctx, eng.ds, dense, cnt, res.values)
	cfg.cal.tick()
	res.Attempted += len(tr.spans)
	res.Failed += len(l.failed)
	res.noteErrs(l.failed...)
	return tr.dump(filepath.Join(cfg.outDir, "trace_"+res.Workload+".ndjson"))
}
