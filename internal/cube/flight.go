package cube

import (
	"context"
	"fmt"
	"time"

	"statcube/internal/budget"
	"statcube/internal/parallel"
	"statcube/internal/qlog"
)

// recordBuildFlight captures one cube construction (or materialization)
// into the flight recorder. Every builder defers it at entry with
// start = qlog.Start() — the zero Time when the recorder is off, which
// makes this a no-op, keeping the disabled hot path free of clock reads
// and allocations — and pointers to its named error result and (MOLAP
// only, else nil) its degraded flag, read when the build returns.
func recordBuildFlight(ctx context.Context, kind string, start time.Time, in *Input, opt Options, degraded *bool, errp *error) {
	if start.IsZero() || !qlog.On() {
		return
	}
	err := *errp
	rec := &qlog.Record{
		Kind:        "cube." + kind,
		Node:        "*cube*",
		Fingerprint: fmt.Sprintf("%s[dims=%d rows=%d]", kind, len(in.Card), len(in.Rows)),
		WallNs:      qlog.Since(start),
		Workers:     parallel.Workers(opt.Workers, len(in.Rows)),
		Outcome:     qlog.Classify(err, degraded != nil && *degraded),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if gov := budget.From(ctx); gov != nil {
		rec.Bytes = gov.PeakBytes()
		rec.Cells = gov.CellsUsed()
	}
	qlog.Log(ctx, rec)
}
