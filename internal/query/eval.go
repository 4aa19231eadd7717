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
// unique across all classifications, or "dimension.level".
func resolveName(o *core.StatObject, name string) (resolved, error) {
	if i := strings.IndexByte(name, '.'); i > 0 {
		dimName, levelName := name[:i], name[i+1:]
		d, err := o.Schema().Dimension(dimName)
		if err != nil {
			return resolved{}, fmt.Errorf("%w: %q", ErrUnknown, name)
		}
		if _, err := d.Class.LevelIndex(levelName); err != nil {
			return resolved{}, fmt.Errorf("%w: %q", ErrUnknown, name)
		}
		return resolved{dim: dimName, level: levelName}, nil
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
				hits = append(hits, resolved{dim: d.Name, level: name})
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

// EvalCtx runs a parsed query against a statistical object, returning the
// result as a derived statistical object (its dimensions are the BY and
// WHERE names). Cancellation and deadlines are honored between operators
// and between cell segments inside them, surfacing as the typed
// budget.ErrCanceled; a budget.Governor attached to ctx caps the memory
// and cells the evaluation may consume.
func EvalCtx(ctx context.Context, o *core.StatObject, q *Query) (*core.StatObject, error) {
	return EvalWithSpan(ctx, o, q, nil)
}

// EvalWithSpan is EvalCtx with tracing: resolution, automatic aggregation
// and WHERE-collapse each open a child span on sp (nil disables tracing).
func EvalWithSpan(ctx context.Context, o *core.StatObject, q *Query, sp *obs.Span) (*core.StatObject, error) {
	if _, err := o.Measure(q.Measure); err != nil {
		return nil, err
	}
	rs := sp.Child("resolve")
	auto := core.AutoQuery{Measure: q.Measure, Where: map[string]core.Pick{}}
	whereOnly := map[string][]core.Value{}
	resolveErr := func(err error) (*core.StatObject, error) {
		rs.SetErr(err)
		rs.End()
		return nil, err
	}
	for _, c := range q.Where {
		r, err := resolveName(o, c.Name)
		if err != nil {
			return resolveErr(err)
		}
		if prev, dup := auto.Where[r.dim]; dup {
			return resolveErr(fmt.Errorf("query: dimension %q constrained twice (%v and %v)", r.dim, prev.Values, c.Values))
		}
		auto.Where[r.dim] = core.Pick{Level: r.level, Values: c.Values}
		whereOnly[r.dim] = c.Values
	}
	for _, name := range q.By {
		r, err := resolveName(o, name)
		if err != nil {
			return resolveErr(err)
		}
		if _, dup := auto.Where[r.dim]; dup {
			return resolveErr(fmt.Errorf("query: dimension %q appears in both BY and WHERE", r.dim))
		}
		delete(whereOnly, r.dim)
		// BY keeps the dimension with every value of the named level.
		d, err := o.Schema().Dimension(r.dim)
		if err != nil {
			return resolveErr(err)
		}
		level := r.level
		if level == "" {
			level = d.Class.LeafLevel().Name
		}
		li, err := d.Class.LevelIndex(level)
		if err != nil {
			return resolveErr(err)
		}
		auto.Where[r.dim] = core.Pick{Level: level, Values: d.Class.Level(li).Values}
	}
	rs.End()
	aa := sp.Child("auto-aggregate")
	res, err := o.AutoAggregateCtx(ctx, auto, aa)
	aa.SetErr(err)
	aa.End()
	if err != nil {
		return nil, err
	}
	// Collapse WHERE-only dimensions: they constrained the data but were
	// not asked for in BY, so the result should not be grouped by them.
	// A single picked value is sliced away (no summarizability question);
	// a multi-value restriction is summarized over, subject to the usual
	// additivity checks. When only one dimension remains it must stay —
	// the scalar reduction happens in RunScalar. Dimensions are collapsed
	// in sorted order so the kept dimension is deterministic.
	dims := make([]string, 0, len(whereOnly))
	for dim := range whereOnly {
		dims = append(dims, dim)
	}
	sort.Strings(dims)
	for _, dim := range dims {
		if res.Schema().NumDims() <= 1 {
			break
		}
		if err := budget.Check(ctx); err != nil {
			return nil, err
		}
		vals := whereOnly[dim]
		cs := sp.Child("collapse:" + dim)
		cs.AddInt("cells_scanned", int64(res.Cells()))
		if len(vals) == 1 {
			res, err = res.Slice(dim, vals[0])
		} else {
			res, err = res.SProjectCtx(ctx, cs, dim)
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

// Run parses and evaluates in one step.
func Run(o *core.StatObject, input string) (*core.StatObject, error) {
	return RunCtx(context.Background(), o, input)
}

// RunCtx is Run with a context: parse, then evaluate under ctx's
// cancellation, deadline and resource budget. When the flight recorder
// is on, the completed query — fingerprint, lattice node, wall time,
// ledger peaks, typed outcome — is logged as one qlog record.
func RunCtx(ctx context.Context, o *core.StatObject, input string) (res *core.StatObject, err error) {
	//lint:ignore nodeterm feeds only the query.latency_ns histogram, which no baseline diffs
	start := time.Now()
	var q *Query
	defer func() { record(ctx, "query", input, o, q, start, nil, err) }()
	if q, err = Parse(input); err != nil {
		return nil, err
	}
	return EvalCtx(ctx, o, q)
}

// RunScalar parses, evaluates, and reduces to one number, for queries
// whose conditions select single values (the Figure 13 case).
func RunScalar(o *core.StatObject, input string) (float64, error) {
	return RunScalarCtx(context.Background(), o, input)
}

// RunScalarCtx is RunScalar with a context (see RunCtx).
func RunScalarCtx(ctx context.Context, o *core.StatObject, input string) (v float64, err error) {
	//lint:ignore nodeterm feeds only the query.latency_ns histogram, which no baseline diffs
	start := time.Now()
	var q *Query
	defer func() { record(ctx, "query.scalar", input, o, q, start, nil, err) }()
	if q, err = Parse(input); err != nil {
		return 0, err
	}
	if len(q.By) > 0 {
		return 0, fmt.Errorf("query: BY queries return tables; use Run")
	}
	res, err := EvalCtx(ctx, o, q)
	if err != nil {
		return 0, err
	}
	return res.Total(q.Measure)
}
