// Command statload is the wrk-style load harness for statd: it drives a
// query mix at a fixed concurrency for a duration (or an exact request
// count), measures exact latency percentiles client-side, and reports
// one NDJSON line compatible with scripts/benchdiff.go.
//
// Usage:
//
//	statload -url http://127.0.0.1:8080 -c 8 -duration 2s -check
//	statload -url http://127.0.0.1:8080 -c 1 -requests 2000 -id ServeCached
//
// Three run shapes:
//
//   - Duration mode (-duration): each of -c workers fires queries from
//     the mix until the deadline; the mix is warmed first so the hit
//     ratio measures the steady state.
//   - Request mode (-requests N): exactly N requests round-robin over
//     the mix, cold start, no warmup — with -c 1 the serve.*/cache.*
//     counters are fully deterministic (misses = mix size, hits =
//     N - mix size), which is what the bench-regression gate diffs.
//   - Shed probe (-expect-shed): the run passes only if the server shed
//     load (429) at least once and every non-shed answer was clean —
//     how the smoke test proves admission control actually refuses work.
//
// -check turns the run into a gate: non-zero exit unless errors == 0,
// shed == 0, the hit ratio is at least -min-hit-ratio and p99 is at
// most -max-p99-ms.
//
// Exit codes: 0 success, 1 usage or transport failure, 2 check failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"statcube/internal/obs"
	"statcube/internal/parallel"
	"statcube/internal/qlog"
	"statcube/internal/serve"
	"statcube/internal/stats"
)

const (
	exitOK      = 0
	exitUsage   = 1
	exitChecked = 2 // a -check or -expect-shed assertion failed
)

// defaultMix exercises distinct plans over the employment demo: repeated
// fingerprints (cache hits) across several shapes and value bindings.
var defaultMix = []string{
	"SHOW employment BY sex WHERE year = 1992",
	"SHOW employment BY profession WHERE year = 1992",
	"SHOW employment BY sex WHERE year = 1991",
	"SHOW total income BY sex WHERE year = 1992",
	"SHOW employment BY professional class WHERE year = 1992",
	"SHOW employment WHERE year = 1992",
}

// tally is one worker's private slice of the run; merged after the stage.
type tally struct {
	ok, shed, errs   int64
	hits, misses     int64
	latencies        []time.Duration
	firstErr         string
	firstErrNonTyped bool
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "statd base URL")
	conc := flag.Int("c", 8, "concurrent workers")
	duration := flag.Duration("duration", 2*time.Second, "run length (duration mode)")
	requests := flag.Int64("requests", 0, "exact request count round-robin over the mix (overrides -duration; cold start, deterministic counters with -c 1)")
	queriesPath := flag.String("queries", "", "file with one query per line (replaces the built-in mix)")
	qlogMix := flag.String("qlog-mix", "", "NDJSON flight log (statd -qlog): replay its query texts as the mix, frequency-weighted")
	useBin := flag.Bool("bin", false, "drive /query.bin and verify each payload decodes")
	id := flag.String("id", "statload", "experiment id for the NDJSON report (benchdiff keys on it)")
	check := flag.Bool("check", false, "gate: fail unless errors==0, shed==0, hit ratio ≥ -min-hit-ratio, p99 ≤ -max-p99-ms")
	minHitRatio := flag.Float64("min-hit-ratio", 0.9, "minimum client-observed cache hit ratio for -check")
	maxP99MS := flag.Float64("max-p99-ms", 250, "maximum p99 latency in milliseconds for -check")
	expectShed := flag.Bool("expect-shed", false, "gate: fail unless the server shed (429) at least once and all other answers were clean")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "statload: unexpected arguments %q\n", flag.Args())
		os.Exit(exitUsage)
	}

	mix, err := loadMix(*queriesPath, *qlogMix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statload:", err)
		os.Exit(exitUsage)
	}
	base := strings.TrimRight(*url, "/")
	endpoint := base + "/query"
	if *useBin {
		endpoint = base + "/query.bin"
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Server-side counters: snapshot /metrics.json before and after so the
	// report carries the run's exact serve.*/cache.* deltas. Best-effort —
	// a server without the endpoint still gets client-side results.
	before, beforeOK := fetchMetrics(client, base)

	// Warmup (duration mode only): paint the mix once so the measured
	// window starts warm. Request mode stays cold — its counters are the
	// deterministic contract the bench gate diffs.
	if *requests <= 0 && !*expectShed {
		for _, q := range mix {
			resp, err := client.Get(endpoint + "?q=" + urlEncode(q))
			if err != nil {
				fmt.Fprintln(os.Stderr, "statload: warmup:", err)
				os.Exit(exitUsage)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	deadline := time.Now().Add(*duration)
	var next atomic.Int64 // request-mode round-robin cursor
	tallies := make([]tally, *conc)
	start := time.Now()
	stageErr := parallel.Stage{Name: "statload", Workers: *conc}.ForEach(*conc, func(w int) error {
		t := &tallies[w]
		for {
			var q string
			if *requests > 0 {
				n := next.Add(1) - 1
				if n >= *requests {
					return nil
				}
				q = mix[n%int64(len(mix))]
			} else {
				if !time.Now().Before(deadline) {
					return nil
				}
				q = mix[(int(t.ok+t.shed+t.errs)+w)%len(mix)]
			}
			t0 := time.Now()
			status, cache, body, err := fire(client, endpoint, q)
			t.latencies = append(t.latencies, time.Since(t0))
			switch {
			case err != nil:
				t.errs++
				if t.firstErr == "" {
					t.firstErr, t.firstErrNonTyped = err.Error(), true
				}
			case status == http.StatusOK:
				if *useBin {
					if _, derr := serve.DecodeBinary(body); derr != nil {
						t.errs++
						if t.firstErr == "" {
							t.firstErr, t.firstErrNonTyped = fmt.Sprintf("%q: bad binary payload: %v", q, derr), true
						}
						continue
					}
				}
				t.ok++
				if cache == "hit" {
					t.hits++
				} else {
					t.misses++
				}
			case status == http.StatusTooManyRequests:
				t.shed++
				if !typedEnvelope(body) && t.firstErr == "" {
					t.firstErr, t.firstErrNonTyped = fmt.Sprintf("%q: 429 without typed envelope: %s", q, body), true
				}
			default:
				t.errs++
				if t.firstErr == "" {
					t.firstErr = fmt.Sprintf("%q: status %d: %s", q, status, body)
					t.firstErrNonTyped = !typedEnvelope(body)
				}
			}
		}
	})
	wall := time.Since(start)
	if stageErr != nil {
		fmt.Fprintln(os.Stderr, "statload:", stageErr)
		os.Exit(exitUsage)
	}

	// Merge worker tallies and compute exact nearest-rank percentiles.
	var total tally
	var all []time.Duration
	for i := range tallies {
		t := &tallies[i]
		total.ok += t.ok
		total.shed += t.shed
		total.errs += t.errs
		total.hits += t.hits
		total.misses += t.misses
		all = append(all, t.latencies...)
		if total.firstErr == "" {
			total.firstErr, total.firstErrNonTyped = t.firstErr, t.firstErrNonTyped
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50, p95, p99 := stats.NearestRank(all, 50), stats.NearestRank(all, 95), stats.NearestRank(all, 99)
	n := total.ok + total.shed + total.errs
	hitRatio := 0.0
	if total.hits+total.misses > 0 {
		hitRatio = float64(total.hits) / float64(total.hits+total.misses)
	}

	counters := map[string]int64{}
	if after, afterOK := fetchMetrics(client, base); beforeOK && afterOK {
		for name, v := range after.Sub(before).Counters {
			if strings.HasPrefix(name, "serve.") || strings.HasPrefix(name, "cache.") {
				counters[name] = v
			}
		}
	}

	report := map[string]any{
		"id":             *id,
		"url":            endpoint,
		"concurrency":    *conc,
		"duration_ms":    float64(wall.Nanoseconds()) / 1e6,
		"requests":       n,
		"ok":             total.ok,
		"shed":           total.shed,
		"errors":         total.errs,
		"hits":           total.hits,
		"misses":         total.misses,
		"hit_ratio":      hitRatio,
		"throughput_qps": float64(n) / wall.Seconds(),
		"p50_ms":         float64(p50.Nanoseconds()) / 1e6,
		"p95_ms":         float64(p95.Nanoseconds()) / 1e6,
		"p99_ms":         float64(p99.Nanoseconds()) / 1e6,
	}
	if len(counters) > 0 {
		report["counters"] = counters
	}
	if total.firstErr != "" {
		report["first_error"] = total.firstErr
	}
	line, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statload:", err)
		os.Exit(exitUsage)
	}
	fmt.Println(string(line))
	fmt.Fprintf(os.Stderr, "statload: %d requests in %.1fs (%.0f q/s): %d ok, %d shed, %d errors; hit ratio %.3f; p50 %.2fms p95 %.2fms p99 %.2fms\n",
		n, wall.Seconds(), float64(n)/wall.Seconds(), total.ok, total.shed, total.errs, hitRatio,
		float64(p50.Nanoseconds())/1e6, float64(p95.Nanoseconds())/1e6, float64(p99.Nanoseconds())/1e6)

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "statload: CHECK FAILED: "+format+"\n", args...)
		os.Exit(exitChecked)
	}
	if *expectShed {
		if total.shed == 0 {
			fail("expected the server to shed load, but no request got 429")
		}
		if total.errs > 0 {
			fail("%d non-shed errors under overload (first: %s)", total.errs, total.firstErr)
		}
		if total.firstErrNonTyped {
			fail("a refusal lacked the typed error envelope: %s", total.firstErr)
		}
	}
	if *check {
		if total.errs > 0 {
			fail("%d errors (first: %s)", total.errs, total.firstErr)
		}
		if total.shed > 0 {
			fail("%d requests shed under light load", total.shed)
		}
		if hitRatio < *minHitRatio {
			fail("hit ratio %.3f < %.3f", hitRatio, *minHitRatio)
		}
		if p99 > time.Duration(*maxP99MS*float64(time.Millisecond)) {
			fail("p99 %.2fms > %.2fms", float64(p99.Nanoseconds())/1e6, *maxP99MS)
		}
	}
}

// fire issues one request and returns (status, cache header, body, err).
func fire(client *http.Client, endpoint, q string) (int, string, []byte, error) {
	resp, err := client.Get(endpoint + "?q=" + urlEncode(q))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Statd-Cache"), body, nil
}

// typedEnvelope reports whether an error body is the daemon's typed
// JSON envelope — the shape every refusal must carry.
func typedEnvelope(body []byte) bool {
	var eb struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	return json.Unmarshal(bytes.TrimSpace(body), &eb) == nil && eb.Code != "" && eb.Error != ""
}

// urlEncode percent-encodes a query for the ?q= parameter.
func urlEncode(q string) string {
	var b strings.Builder
	for i := 0; i < len(q); i++ {
		c := q[i]
		switch {
		case c == ' ':
			b.WriteByte('+')
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// fetchMetrics reads the daemon's /metrics.json into an obs.Snapshot.
func fetchMetrics(client *http.Client, base string) (obs.Snapshot, bool) {
	resp, err := client.Get(base + "/metrics.json")
	if err != nil {
		return obs.Snapshot{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return obs.Snapshot{}, false
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return obs.Snapshot{}, false
	}
	return s, true
}

// loadMix builds the query mix: an explicit -queries file, a -qlog-mix
// flight log (query texts in recorded order, so frequency weights
// replay), or the built-in default.
func loadMix(queriesPath, qlogPath string) ([]string, error) {
	switch {
	case queriesPath != "" && qlogPath != "":
		return nil, fmt.Errorf("use either -queries or -qlog-mix, not both")
	case queriesPath != "":
		f, err := os.Open(queriesPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var mix []string
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
				mix = append(mix, line)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		if len(mix) == 0 {
			return nil, fmt.Errorf("%s: no queries", queriesPath)
		}
		return mix, nil
	case qlogPath != "":
		f, err := os.Open(qlogPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recs, malformed, err := qlog.ReadAll(f)
		if err != nil {
			return nil, err
		}
		if malformed > 0 {
			fmt.Fprintf(os.Stderr, "statload: %s: skipped %d malformed flight records\n", qlogPath, malformed)
		}
		var mix []string
		for _, r := range recs {
			if strings.HasPrefix(r.Kind, "query") && r.Text != "" {
				mix = append(mix, r.Text)
			}
		}
		if len(mix) == 0 {
			return nil, fmt.Errorf("%s: no query flights with text", qlogPath)
		}
		return mix, nil
	default:
		return defaultMix, nil
	}
}
