package serve

import (
	"sync"
	"time"

	"statcube/internal/obs"
)

// Negative-result cache metrics, one registration site each:
//
//	serve.neg_hits     query-shaped failures answered from the negative cache
//	serve.neg_entries  negative entries currently stored
var (
	negHitsCounter = obs.Default().Counter("serve.neg_hits")
	negEntryGauge  = obs.Default().Gauge("serve.neg_entries")
)

// negCache remembers queries that failed with a caller error — a parse
// failure, an unknown name — so a client retrying the same broken text
// in a loop is answered from memory instead of re-parsing and
// re-binding on every attempt. Entries are the typed error envelope
// (status, code, message), kept for negTTL so a fix that changes what's
// valid (a new column after a reload) isn't shadowed for long.
//
// Only 400-class errors are ever stored. Refusals that depend on the
// moment — budget pressure, cancellation, overload, internal faults —
// must re-evaluate every time; caching them would turn a transient
// condition into a sticky lie. The caller enforces this (see
// negCacheable); the cache itself just stores what it's given.
//
// The cache never reads a clock: lookups and inserts take the request's
// arrival timestamp.
type negCache struct {
	max int

	mu sync.Mutex
	m  map[string]negEntry
}

// negEntry is one remembered failure: the exact envelope the original
// request got.
type negEntry struct {
	status  int
	code    string
	msg     string
	expires time.Time
}

// negTTL is how long a remembered failure is served from memory.
const negTTL = 30 * time.Second

// newNegCache builds an empty negative cache.
func newNegCache() *negCache {
	return &negCache{max: 1024, m: map[string]negEntry{}}
}

// get returns the remembered failure for query text q, if present and
// fresh as of now. An expired entry is dropped on the way.
func (n *negCache) get(q string, now time.Time) (negEntry, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.m[q]
	if !ok {
		return negEntry{}, false
	}
	if now.After(e.expires) {
		delete(n.m, q)
		if obs.On() {
			negEntryGauge.Set(float64(len(n.m)))
		}
		return negEntry{}, false
	}
	return e, true
}

// put remembers a failure envelope for q. At capacity, expired entries
// are swept first; if every entry is still fresh the insert is skipped —
// bounding memory beats remembering one more broken query.
func (n *negCache) put(q string, status int, code, msg string, now time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.m[q]; !ok && len(n.m) >= n.max {
		for k, e := range n.m {
			if now.After(e.expires) {
				delete(n.m, k)
			}
		}
		if len(n.m) >= n.max {
			return
		}
	}
	n.m[q] = negEntry{status: status, code: code, msg: msg, expires: now.Add(negTTL)}
	if obs.On() {
		negEntryGauge.Set(float64(len(n.m)))
	}
}

// invalidate drops every negative entry — taken alongside result-cache
// invalidation on a generation publish, since a load can make a
// previously unknown name valid.
func (n *negCache) invalidate() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.m = map[string]negEntry{}
	if obs.On() {
		negEntryGauge.Set(0)
	}
}

// entries returns the live entry count (for healthz).
func (n *negCache) entries() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.m)
}
