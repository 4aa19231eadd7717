package query

import (
	"time"

	"statcube/internal/budget"
	"statcube/internal/obs"
)

// Query-layer instrumentation, charged once per evaluation (EvalCtx or a
// Run*Ctx form):
//
//	query.queries      queries started
//	query.errors       queries that returned an error (parse, resolve, eval)
//	query.latency_ns   end-to-end latency histogram (ns)
//
// A canceled or timed-out query additionally bumps the engine-wide
// engine.queries_canceled counter (owned by the budget package), once per
// abandoned query.
var (
	qCount   = obs.Default().Counter("query.queries")
	qErrors  = obs.Default().Counter("query.errors")
	qLatency = obs.Default().Histogram("query.latency_ns")
)

// recordQuery charges one completed query attempt.
func recordQuery(start time.Time, err error) {
	if !obs.On() {
		return
	}
	qCount.Inc()
	if err != nil {
		qErrors.Inc()
		if budget.IsCanceled(err) {
			budget.RecordCanceled()
		}
	}
	//lint:ignore nodeterm latency histograms are observability, not a diffed counter
	qLatency.Observe(float64(time.Since(start).Nanoseconds()))
}
