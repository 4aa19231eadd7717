package query

import (
	"context"

	"statcube/internal/budget"
	"statcube/internal/core"
	"statcube/internal/obs"
)

// RunExplainCtx parses and evaluates input like RunCtx, but additionally
// records an execution trace: a root "query" span with "parse",
// "resolve", "auto-aggregate" and per-dimension "collapse:*"/"scan:*"
// child spans, each annotated with cells_scanned/groups_out and
// wall-clock duration. This is the engine's EXPLAIN ANALYZE — the plan is
// the trace of the run that actually happened, not an estimate.
//
// The span is always returned, even on error (the failing step carries
// the error message), so callers can show how far execution got. When the
// query is cut short — canceled, timed out, or over budget — the root
// span records why in a "canceled" attribute (the context's cause when
// there is one).
func RunExplainCtx(ctx context.Context, o *core.StatObject, input string) (*core.StatObject, *obs.Span, error) {
	root := obs.NewSpan("query")
	root.SetStr("text", input)
	res, err := run(ctx, o, call{kind: "query.explain", text: input, root: root})
	return res, root, err
}

// finishTrace closes an EXPLAIN ANALYZE root (nil: no trace) before the
// flight record captures it: the cancellation cause, the budget ledger's
// high-water marks — peak concurrently-reserved bytes and cumulative
// cells charged, read after evaluation so degraded or failed paths show
// what they actually consumed — and the outcome.
func finishTrace(ctx context.Context, root *obs.Span, err error) {
	if root == nil {
		return
	}
	if err != nil && budget.IsCanceled(err) {
		cause := context.Cause(ctx)
		if cause == nil {
			cause = err
		}
		root.SetStr("canceled", cause.Error())
	}
	if gov := budget.From(ctx); gov != nil {
		root.AddInt("budget_peak_bytes", gov.PeakBytes())
		root.AddInt("budget_cells", gov.CellsUsed())
	}
	root.SetErr(err)
	root.End()
}
