package query

import (
	"context"
	"time"

	"statcube/internal/budget"
	"statcube/internal/core"
	"statcube/internal/obs"
)

// RunExplain parses and evaluates input like Run, but additionally records
// an execution trace: a root "query" span with "parse", "resolve",
// "auto-aggregate" and per-dimension "collapse:*"/"scan:*" child spans,
// each annotated with cells_scanned/groups_out and wall-clock duration.
// This is the engine's EXPLAIN ANALYZE — the plan is the trace of the run
// that actually happened, not an estimate.
//
// The span is always returned, even on error (the failing step carries the
// error message), so callers can show how far execution got.
func RunExplain(o *core.StatObject, input string) (*core.StatObject, *obs.Span, error) {
	return RunExplainCtx(context.Background(), o, input)
}

// RunExplainCtx is RunExplain under a context: cancellation, deadlines and
// resource budgets are honored as in RunCtx. When the query is cut short —
// canceled, timed out, or over budget — the root span records why in a
// "canceled" attribute (the context's cause when there is one), so the
// EXPLAIN ANALYZE tree shows both where execution stopped and what stopped
// it.
func RunExplainCtx(ctx context.Context, o *core.StatObject, input string) (res *core.StatObject, root *obs.Span, err error) {
	//lint:ignore nodeterm feeds only the query.latency_ns histogram, which no baseline diffs
	start := time.Now()
	root = obs.NewSpan("query")
	root.SetStr("text", input)
	var q *Query
	defer func() {
		root.End()
		record(ctx, "query.explain", input, o, q, start, root, err)
	}()
	ps := root.Child("parse")
	q, err = Parse(input)
	ps.SetErr(err)
	ps.End()
	if err != nil {
		return nil, root, err
	}
	res, err = EvalWithSpan(ctx, o, q, root)
	if err != nil && budget.IsCanceled(err) {
		cause := context.Cause(ctx)
		if cause == nil {
			cause = err
		}
		root.SetStr("canceled", cause.Error())
	}
	// The budget ledger's high-water marks belong in the EXPLAIN ANALYZE
	// tree: peak concurrently-reserved bytes and cumulative cells charged,
	// read after evaluation so degraded/failed paths show what they
	// actually consumed (not just that a degrade event happened).
	if gov := budget.From(ctx); gov != nil {
		root.AddInt("budget_peak_bytes", gov.PeakBytes())
		root.AddInt("budget_cells", gov.CellsUsed())
	}
	root.SetErr(err)
	return res, root, err
}
