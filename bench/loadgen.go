package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"statcube/internal/stats"
)

// numSegments splits a measured window: each client runs the reference
// kernel at every boundary, and a segment's latencies are scaled by the
// kernel's times at its two ends.
const numSegments = 5

// request is one generated GET.
type request struct {
	url        string
	plan       int // index into the workload's plans; -1 for an invalid text
	wantStatus int
	check      bool // compare the answer with the oracle
}

// sighting is one distinct body a reader saw for a plan. Bodies are
// compared byte for byte as they arrive and decoded against the oracle
// once, after the window: every answer is checked, and the check costs
// the measured loop a memcmp.
type sighting struct {
	body []byte
	sent int64 // append batches sent when the body was first seen
}

// reader is one closed-loop client: it waits for each reply before it
// asks again, as an analyst or a dashboard does.
type reader struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
	cal    *calibration // ticked at every segment boundary of a window

	lat      []float64                  // ms per request, in send order
	segEnd   [numSegments]int           // len(lat) when each segment closed
	segAt    [numSegments + 1]time.Time // when each segment began; the last entry is the window's end
	tracedAt int                        // len(lat) when tracing came on; -1 if never
	seen     map[int][]sighting         // by plan index

	attempted, failed, shed int
	missMs                  float64 // latencies of replies marked X-Statd-Cache: miss, summed
	errs                    []string
}

func newReader(base string, cal *calibration) *reader {
	return &reader{
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
		base:     base,
		cal:      cal,
		seen:     map[int][]sighting{},
		tracedAt: -1,
	}
}

func (r *reader) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// get sends one request and reads the whole reply into r.buf.
func (r *reader) get(req request) (cacheHdr string, ok bool) {
	r.attempted++
	resp, err := r.client.Get(r.base + req.url)
	if err != nil {
		r.fail("GET %s: %v", req.url, err)
		return "", false
	}
	r.buf.Reset()
	_, err = r.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // a read error, if any, is already in err
	if err != nil {
		r.fail("GET %s: reading body: %v", req.url, err)
		return "", false
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		r.shed++
	}
	if resp.StatusCode != req.wantStatus {
		r.fail("GET %s: status %d, want %d: %s", req.url, resp.StatusCode, req.wantStatus, r.buf.Bytes())
		return "", false
	}
	return resp.Header.Get("X-Statd-Cache"), true
}

// note files the body just read under its plan unless an identical one
// is already there.
func (r *reader) note(plan int, sent int64) {
	body := r.buf.Bytes()
	for _, s := range r.seen[plan] {
		if bytes.Equal(s.body, body) {
			return
		}
	}
	r.seen[plan] = append(r.seen[plan], sighting{append([]byte(nil), body...), sent})
}

// loop runs the closed loop until the window ends. next yields request
// i; sent counts the append batches sent so far. From traceAfter on,
// each round trip is also recorded as a span.
func (r *reader) loop(start time.Time, window time.Duration, next func(i int) request, sent *atomic.Int64, tr *tracer, traceAfter time.Duration) {
	seg, i := -1, 0 // the open segment, and the next request
	for {
		t0 := time.Now()
		elapsed := t0.Sub(start)
		if elapsed >= window {
			break
		}
		if s := int(elapsed * numSegments / window); s > seg {
			// A boundary: close what is behind it and run the reference
			// kernel before the next request goes out.
			r.closeSegments(seg, s, t0)
			seg = s
			r.cal.settle()
			continue
		}
		tracing := tr != nil && elapsed >= traceAfter
		if tracing && r.tracedAt < 0 {
			r.tracedAt = len(r.lat)
		}
		req := next(i)
		i++
		cacheHdr, ok := r.get(req)
		t1 := time.Now()
		ms := float64(t1.Sub(t0)) / 1e6
		r.lat = append(r.lat, ms)
		if tracing {
			tr.record(tr.newOp(), 0, "http.query", t0, t1)
		}
		if !ok {
			continue
		}
		if cacheHdr == "miss" {
			r.missMs += ms
		}
		if req.check {
			r.note(req.plan, sent.Load())
		}
	}
	r.closeSegments(seg, numSegments, time.Now())
	r.cal.settle()
}

// closeSegments ends segments from up to (but not including) to at time
// at, which is also when segment to begins.
func (r *reader) closeSegments(from, to int, at time.Time) {
	for k := from; k < to; k++ {
		if k >= 0 {
			r.segEnd[k] = len(r.lat)
		}
		r.segAt[k+1] = at
	}
}

// appender sends publishing appends. In a window it is an open loop:
// batch i is due at start + i*every whether or not the last one is
// back, and is timed from when it was due.
type appender struct {
	client *http.Client
	url    string
	cal    *calibration // ticked before every batch and after the last

	dueAt  []time.Time // of the acknowledged batches
	ackMs  []float64   // due (or send) time to acknowledgement
	lateMs []float64   // how long after its due time each batch left
	gens   []uint64    // acknowledged generations, in order
	acked  float64     // sum of acknowledged values

	attempted, failed int
	errs              []string
}

func newAppender(base string, cal *calibration) *appender {
	return &appender{
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
		url:    base + "/append",
		cal:    cal,
	}
}

// send posts one batch and records its acknowledgement, timed from due.
func (a *appender) send(b *batch, due time.Time) {
	a.attempted++
	a.lateMs = append(a.lateMs, float64(time.Since(due))/1e6)
	gen, err := a.post(b.body)
	if err != nil {
		a.failed++
		if len(a.errs) < 5 {
			a.errs = append(a.errs, err.Error())
		}
		return
	}
	a.dueAt = append(a.dueAt, due)
	a.ackMs = append(a.ackMs, float64(time.Since(due))/1e6)
	a.gens = append(a.gens, gen)
	a.acked += total(b.vals)
}

func (a *appender) post(body []byte) (uint64, error) {
	resp, err := a.client.Post(a.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("POST /append: %w", err)
	}
	reply, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // a read error, if any, is already in err
	if err != nil {
		return 0, fmt.Errorf("POST /append: reading body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /append: status %d: %s", resp.StatusCode, reply)
	}
	var st struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(reply, &st); err != nil {
		return 0, fmt.Errorf("POST /append: reply %q: %w", reply, err)
	}
	return st.Generation, nil
}

// tickLead is how long before a batch is due its appender wakes to run
// the reference kernel: the kernel's nominal time and half again.
const tickLead = 15 * time.Millisecond

// loop sends the batches on schedule, the reference kernel run just
// before each and after the last. sent and acked count the batches as
// they leave and as their replies arrive.
func (a *appender) loop(start time.Time, every time.Duration, batches []batch, sent, acked *atomic.Int64) {
	for i := range batches {
		due := start.Add(time.Duration(i) * every)
		time.Sleep(time.Until(due) - tickLead)
		a.cal.tick()
		time.Sleep(time.Until(due))
		sent.Add(1)
		a.send(&batches[i], due)
		acked.Add(1)
	}
	a.cal.tick()
}

// drain sends the batches back to back, each timed from its own send,
// with the reference kernel run between them.
func (a *appender) drain(batches []batch) {
	for i := range batches {
		a.cal.tick()
		a.send(&batches[i], time.Now())
	}
	a.cal.tick()
}

// scaled is the acknowledgement times on the nominal box.
func (a *appender) scaled() []float64 {
	out := make([]float64, len(a.ackMs))
	for i, ms := range a.ackMs {
		out[i] = ms * a.cal.factor(a.dueAt[i], a.dueAt[i].Add(time.Duration(ms*1e6)))
	}
	return out
}

// pct is a percentile of a non-empty sample.
func pct(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return pct(xs, 50) }

// readSummary is the read side of a window.
type readSummary struct {
	p50ms, p95ms, qps float64
}

// scaled is a reader's latencies on the nominal box: each window
// segment's by the reference ticks at that segment's two ends.
func (r *reader) scaled() []float64 {
	out := make([]float64, 0, len(r.lat))
	lo := 0
	for s := 0; s < numSegments; s++ {
		f := r.cal.factor(r.segAt[s], r.segAt[s+1])
		for _, ms := range r.lat[lo:r.segEnd[s]] {
			out = append(out, ms*f)
		}
		lo = r.segEnd[s]
	}
	return out
}

// summarize folds scaled latencies, given per client. The rate is the
// sum of each client's answers per second of its own waiting, which for
// a closed loop is its request rate.
func summarize(clients [][]float64) readSummary {
	var all []float64
	var sum readSummary
	for _, c := range clients {
		if len(c) > 0 {
			all = append(all, c...)
			sum.qps += float64(len(c)) / (total(c) / 1e3)
		}
	}
	sum.p50ms, sum.p95ms = median(all), pct(all, 95)
	return sum
}
