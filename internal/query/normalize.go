package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"statcube/internal/core"
	"statcube/internal/qlog"
)

// plan is a parsed query resolved against one object: the single step in
// which a query's names meet the object's explicit semantics (§5.1's
// automatic aggregation). Normalize, evaluation and the flight record all
// read it, so the cache key, the answer and the recorded flight cannot
// disagree about what a query means.
type plan struct {
	agg     string     // the measure's summary function
	by      []resolved // BY names, in query order
	where   []resolved // WHERE names, parallel to Query.Where
	byNames []string   // canonical BY names, the lattice node's input (qlog.Node)
	// fingerprint is the plan shape — aggregate(measure), sorted BY and
	// WHERE names with literal values dropped (qlog.Fingerprint) — so the
	// daemon's cache metrics and the workload profiler speak about the
	// same plans.
	fingerprint string
	// key is the exact result identity: the fingerprint plus each
	// condition's resolved name and its sorted, quoted value list.
	key string
}

// resolve is the one resolver: it maps every BY and WHERE name onto a
// dimension and level of o and builds the plan's identities. Unknown or
// ambiguous names, an unknown measure, and a dimension named twice — in
// BY twice, in BY and WHERE, or in WHERE twice — are refused here, before
// any key exists, so two queries share a key only when they are the same
// plan.
func resolve(o *core.StatObject, q *Query) (plan, error) {
	m, err := o.Measure(q.Measure)
	if err != nil {
		return plan{}, err
	}
	nb := len(q.By)
	rs := make([]resolved, 0, nb+len(q.Where))
	names := make([]string, 0, nb+len(q.Where))
	conds := make([]string, 0, len(q.Where))
	for _, name := range q.By {
		r, err := resolveName(o, name)
		if err != nil {
			return plan{}, err
		}
		if err := namedTwice(rs, nb, r.dim, "BY"); err != nil {
			return plan{}, err
		}
		rs = append(rs, r)
		names = append(names, canonicalName(r))
	}
	for _, c := range q.Where {
		r, err := resolveName(o, c.Name)
		if err != nil {
			return plan{}, err
		}
		if err := namedTwice(rs, nb, r.dim, "WHERE"); err != nil {
			return plan{}, err
		}
		rs = append(rs, r)
		name := canonicalName(r)
		names = append(names, name)
		vals := make([]string, 0, len(c.Values))
		for _, v := range c.Values {
			vals = append(vals, strconv.Quote(string(v)))
		}
		sort.Strings(vals)
		conds = append(conds, strings.ToLower(name)+"="+strings.Join(vals, ","))
	}
	sort.Strings(conds)
	p := plan{agg: m.Func.String(), by: rs[:nb], where: rs[nb:], byNames: names[:nb]}
	p.fingerprint = qlog.Fingerprint(p.agg, q.Measure, p.byNames, names[nb:])
	p.key = p.fingerprint + " § " + strings.Join(conds, "&")
	return p, nil
}

// namedTwice refuses dim when an earlier name already resolved to it,
// saying which clauses named it: rs holds the names resolved so far, the
// first nb of them from BY.
func namedTwice(rs []resolved, nb int, dim, clause string) error {
	for i, r := range rs {
		if r.dim != dim {
			continue
		}
		prev := "BY"
		if i >= nb {
			prev = "WHERE"
		}
		if prev == clause {
			return fmt.Errorf("query: dimension %q named twice in %s", dim, clause)
		}
		return fmt.Errorf("query: dimension %q appears in both BY and WHERE", dim)
	}
	return nil
}

// Normalize resolves a parsed query against an object and returns the
// two identities the serving layer builds on: the plan's fingerprint and
// its exact result key. Two queries share a key only when they must
// return the same result — same plan shape and same literal restrictions,
// regardless of clause order, name spelling (dimension vs
// dimension.level) or IN-list ordering. Values are strconv-quoted into
// the key, so separator bytes inside a quoted literal cannot collide two
// distinct restrictions. Resolution failures surface here, before any
// engine work runs.
func Normalize(o *core.StatObject, q *Query) (fingerprint, key string, err error) {
	p, err := resolve(o, q)
	return p.fingerprint, p.key, err
}

// canonicalName renders a resolved name as its "dimension.level" form
// (bare dimension for the leaf, which resolution records as "").
func canonicalName(r resolved) string {
	if r.level == "" {
		return r.dim
	}
	return r.dim + "." + r.level
}
