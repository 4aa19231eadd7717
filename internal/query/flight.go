package query

import (
	"context"
	"time"

	"statcube/internal/budget"
	"statcube/internal/core"
	"statcube/internal/obs"
	"statcube/internal/qlog"
)

// record is the one exit hook of Run/RunScalar/RunExplain, deferred at
// entry: it charges the query metrics and, when the flight recorder is
// on, captures the query as one qlog record — the recorder costs nothing
// unless someone turned it on. q is nil when the text did not parse.
//
// The fingerprint is built from resolved names (dimension.level) so two
// spellings of the same plan — "profession" vs "profession.profession",
// clause order, literal values — collide on one identity; names that
// fail to resolve (the query errored) fall back to their raw lowercased
// form so even failing flights keep a stable shape.
func record(ctx context.Context, kind, text string, o *core.StatObject, q *Query, start time.Time, sp *obs.Span, err error) {
	recordQuery(start, err)
	if !qlog.On() {
		return
	}
	rec := &qlog.Record{
		Kind:    kind,
		Text:    text,
		WallNs:  qlog.Since(start),
		Outcome: qlog.Classify(err, false),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if q != nil {
		rec.Measure = q.Measure
		if o != nil {
			if m, merr := o.Measure(q.Measure); merr == nil {
				rec.Agg = m.Func.String()
			}
		}
		by := make([]string, 0, len(q.By))
		for _, name := range q.By {
			by = append(by, resolvedName(o, name))
		}
		where := make([]string, 0, len(q.Where))
		for _, c := range q.Where {
			where = append(where, resolvedName(o, c.Name))
		}
		rec.Node = qlog.Node(by)
		rec.Fingerprint = qlog.Fingerprint(rec.Agg, q.Measure, by, where)
	}
	if gov := budget.From(ctx); gov != nil {
		rec.Bytes = gov.PeakBytes()
		rec.Cells = gov.CellsUsed()
	}
	if sp != nil {
		rec.Plan = sp.Render(obs.RenderOptions{})
		spans := 0
		sp.Walk(func(int, *obs.Span) { spans++ })
		rec.Spans = spans
	}
	qlog.Log(ctx, rec)
}

// resolvedName normalizes one BY/WHERE name to its resolved
// "dimension.level" identity, falling back to the raw name when the
// object cannot resolve it.
func resolvedName(o *core.StatObject, name string) string {
	if o == nil {
		return name
	}
	r, err := resolveName(o, name)
	if err != nil {
		return name
	}
	if r.level == "" || r.level == r.dim {
		return r.dim
	}
	return r.dim + "." + r.level
}
