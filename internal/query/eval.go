package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"statcube/internal/budget"
	"statcube/internal/core"
	"statcube/internal/obs"
)

// resolved locates a dimension/level pair for a name in a schema.
type resolved struct {
	dim   string
	level string // level name within the dimension's classification
}

// resolveName maps a query name onto a dimension and level of the object's
// schema. Accepted forms: a dimension name (its leaf level), a level name
// unique across all classifications, or "dimension.level". The leaf level
// is recorded as "" however it was spelled, so each plan has one
// canonical name.
func resolveName(o *core.StatObject, name string) (resolved, error) {
	if i := strings.IndexByte(name, '.'); i > 0 {
		dimName, levelName := name[:i], name[i+1:]
		d, err := o.Schema().Dimension(dimName)
		if err != nil {
			return resolved{}, fmt.Errorf("%w: %q", ErrUnknown, name)
		}
		li, err := d.Class.LevelIndex(levelName)
		if err != nil {
			return resolved{}, fmt.Errorf("%w: %q", ErrUnknown, name)
		}
		return resolvedAt(dimName, levelName, li), nil
	}
	// An exact dimension name wins over levels of its own classification
	// (flat dimensions name their leaf level after the dimension), but a
	// same-named level on a *different* dimension makes the bare name
	// genuinely ambiguous — silently preferring the dimension would answer
	// a different question than the user may have asked. The dotted
	// "dimension.level" form disambiguates.
	if _, err := o.Schema().Dimension(name); err == nil {
		for _, d := range o.Schema().Dimensions() {
			if d.Name == name {
				continue
			}
			for li := 0; li < d.Class.NumLevels(); li++ {
				if d.Class.Level(li).Name == name {
					return resolved{}, fmt.Errorf("%w: %q is both a dimension and a level of dimension %q (use the dimension.level form, e.g. %q)",
						ErrAmbiguous, name, d.Name, d.Name+"."+name)
				}
			}
		}
		return resolved{dim: name}, nil
	}
	// Search classification levels.
	var hits []resolved
	for _, d := range o.Schema().Dimensions() {
		for li := 0; li < d.Class.NumLevels(); li++ {
			if d.Class.Level(li).Name == name {
				hits = append(hits, resolvedAt(d.Name, name, li))
			}
		}
	}
	switch len(hits) {
	case 0:
		return resolved{}, fmt.Errorf("%w: %q", ErrUnknown, name)
	case 1:
		return hits[0], nil
	default:
		return resolved{}, fmt.Errorf("%w: %q", ErrAmbiguous, name)
	}
}

// resolvedAt locates level li of dimension dim, recording the leaf
// (level 0) as "".
func resolvedAt(dim, level string, li int) resolved {
	if li == 0 {
		level = ""
	}
	return resolved{dim: dim, level: level}
}

// EvalCtx evaluates a parsed query against a statistical object,
// returning the result as a derived statistical object (its dimensions
// are the BY and WHERE names). Cancellation and deadlines are honored
// between operators and between cell segments inside them, surfacing as
// the typed budget.ErrCanceled; a budget.Governor attached to ctx caps
// the memory and cells the evaluation may consume. The query is charged
// to the query metrics and, when the flight recorder is on, logged as one
// qlog record of kind "query".
func EvalCtx(ctx context.Context, o *core.StatObject, q *Query) (*core.StatObject, error) {
	return run(ctx, o, call{kind: "query", text: q.text, q: q})
}

// RunCtx parses input and evaluates it like EvalCtx.
func RunCtx(ctx context.Context, o *core.StatObject, input string) (*core.StatObject, error) {
	return run(ctx, o, call{kind: "query", text: input})
}

// RunScalarCtx parses, evaluates, and reduces to one number, for queries
// whose conditions select single values (the Figure 13 case).
func RunScalarCtx(ctx context.Context, o *core.StatObject, input string) (float64, error) {
	var v float64
	_, err := run(ctx, o, call{kind: "query.scalar", text: input, scalar: &v})
	return v, err
}

// call is one evaluation as an exported entry point hands it to run.
type call struct {
	kind   string    // the qlog record kind
	text   string    // the query as written
	q      *Query    // the parsed query; nil means run parses text
	root   *obs.Span // the EXPLAIN ANALYZE trace (RunExplainCtx), else nil
	scalar *float64  // receives the one-number reduction (RunScalarCtx), else nil
}

// run is the one evaluation entry behind EvalCtx and the Run*Ctx forms:
// it takes the query's one start stamp, parses when handed text, resolves,
// evaluates, and — deferred, so every outcome is covered — finishes the
// trace and writes the query's one record.
func run(ctx context.Context, o *core.StatObject, c call) (res *core.StatObject, err error) {
	//lint:ignore nodeterm feeds only the query.latency_ns histogram and the record's wall time, which no baseline diffs
	start := time.Now()
	q := c.q
	var p *plan
	defer func() {
		finishTrace(ctx, c.root, err)
		record(ctx, c, q, p, start, err)
	}()
	if q == nil {
		ps := c.root.Child("parse")
		q, err = Parse(c.text)
		ps.SetErr(err)
		ps.End()
		if err != nil {
			return nil, err
		}
	}
	rs := c.root.Child("resolve")
	pl, err := resolve(o, q)
	var auto core.AutoQuery
	if err == nil {
		p = &pl
		auto, err = autoQuery(o, q, p)
	}
	rs.SetErr(err)
	rs.End()
	if err != nil {
		return nil, err
	}
	if c.scalar != nil && len(q.By) > 0 {
		return nil, fmt.Errorf("query: BY queries return tables; use RunCtx")
	}
	res, err = evaluate(ctx, o, auto, p.where, c.root)
	if err == nil && c.scalar != nil {
		*c.scalar, err = res.Total(q.Measure)
	}
	return res, err
}

// autoQuery turns a resolved plan into the automatic-aggregation request:
// WHERE keeps each condition's picked values at its named level, BY keeps
// the dimension with every value of the named level (the leaf when the
// name was a bare dimension).
func autoQuery(o *core.StatObject, q *Query, p *plan) (core.AutoQuery, error) {
	auto := core.AutoQuery{Measure: q.Measure, Where: make(map[string]core.Pick, len(p.by)+len(p.where))}
	for i, r := range p.where {
		auto.Where[r.dim] = core.Pick{Level: r.level, Values: q.Where[i].Values}
	}
	for _, r := range p.by {
		d, err := o.Schema().Dimension(r.dim)
		if err != nil {
			return core.AutoQuery{}, err
		}
		level := r.level
		if level == "" {
			level = d.Class.LeafLevel().Name
		}
		li, err := d.Class.LevelIndex(level)
		if err != nil {
			return core.AutoQuery{}, err
		}
		auto.Where[r.dim] = core.Pick{Level: level, Values: d.Class.Level(li).Values}
	}
	return auto, nil
}

// evaluate runs automatic aggregation, then collapses the WHERE
// dimensions: they constrained the data but were not asked for in BY, so
// the result should not be grouped by them. A single picked value is
// sliced away (no summarizability question); a multi-value restriction is
// summarized over, subject to the usual additivity checks. When only one
// dimension remains it must stay — the scalar reduction happens in
// RunScalarCtx. Dimensions are collapsed in sorted order so the kept
// dimension is deterministic. Each stage opens a child span on sp (nil
// disables tracing).
func evaluate(ctx context.Context, o *core.StatObject, auto core.AutoQuery, where []resolved, sp *obs.Span) (*core.StatObject, error) {
	aa := sp.Child("auto-aggregate")
	res, err := o.AutoAggregateCtx(ctx, auto, aa)
	aa.SetErr(err)
	aa.End()
	if err != nil {
		return nil, err
	}
	dims := make([]string, 0, len(where))
	for _, r := range where {
		dims = append(dims, r.dim)
	}
	sort.Strings(dims)
	for _, dim := range dims {
		if res.Schema().NumDims() <= 1 {
			break
		}
		if err := budget.Check(ctx); err != nil {
			return nil, err
		}
		vals := auto.Where[dim].Values
		cs := sp.Child("collapse:" + dim)
		cs.AddInt("cells_scanned", int64(res.Cells()))
		if len(vals) == 1 {
			res, err = res.Slice(dim, vals[0])
		} else {
			res, err = res.SProjectCtx(ctx, dim)
		}
		if err != nil {
			cs.SetErr(err)
			cs.End()
			return nil, err
		}
		cs.AddInt("groups_out", int64(res.Cells()))
		cs.End()
	}
	return res, nil
}
