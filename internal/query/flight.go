package query

import (
	"context"
	"time"

	"statcube/internal/budget"
	"statcube/internal/obs"
	"statcube/internal/qlog"
)

// record is run's one exit hook: it charges the query metrics and, when
// the flight recorder is on, captures the query as one qlog record — the
// recorder costs nothing unless someone turned it on.
//
// The fingerprint and lattice node come from the resolved plan p, so two
// spellings of the same plan — "profession" vs "profession.profession",
// clause order, literal values — collide on one identity. When the query
// failed to resolve (p nil) its raw names stand in, so even failing
// flights keep a stable shape; when it failed to parse (q nil) only the
// text is recorded.
func record(ctx context.Context, c call, q *Query, p *plan, start time.Time, err error) {
	recordQuery(start, err)
	if !qlog.On() {
		return
	}
	rec := &qlog.Record{
		Kind:    c.kind,
		Text:    c.text,
		WallNs:  qlog.Since(start),
		Outcome: qlog.Classify(err, false),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	switch {
	case p != nil:
		rec.Measure = q.Measure
		rec.Agg = p.agg
		rec.Node = qlog.Node(p.byNames)
		rec.Fingerprint = p.fingerprint
	case q != nil:
		where := make([]string, 0, len(q.Where))
		for _, cond := range q.Where {
			where = append(where, cond.Name)
		}
		rec.Measure = q.Measure
		rec.Node = qlog.Node(q.By)
		rec.Fingerprint = qlog.Fingerprint("", q.Measure, q.By, where)
	}
	if gov := budget.From(ctx); gov != nil {
		rec.Bytes = gov.PeakBytes()
		rec.Cells = gov.CellsUsed()
	}
	if c.root != nil {
		rec.Plan = c.root.Render(obs.RenderOptions{})
		spans := 0
		c.root.Walk(func(int, *obs.Span) { spans++ })
		rec.Spans = spans
	}
	qlog.Log(ctx, rec)
}
