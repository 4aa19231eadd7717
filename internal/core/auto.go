package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"statcube/internal/budget"
	"statcube/internal/obs"
)

// This file implements "automatic aggregation" [S82] (Section 5.1,
// Figure 13): because the semantics of a statistical object are explicit,
// a query need only state a minimum of conditions — circling "80" on the
// year node and "engineer" on the professional-class node — and everything
// else is inferred:
//
//   - dimensions not mentioned are summarized over all their values;
//   - a condition at a non-leaf level summarizes over the descendants of
//     the chosen values;
//   - the summary measure and its function come from the S-node.

// Pick is one circled condition: values of one level of one dimension's
// classification. A zero Level means the leaf level.
type Pick struct {
	Level  string
	Values []Value
}

// AutoQuery is a concise statistical query: conditions per dimension, and
// the measure to report (optional when the object has a single measure).
type AutoQuery struct {
	Measure string
	Where   map[string]Pick
}

// AutoAggregate evaluates the query, returning a statistical object whose
// dimensions are exactly the mentioned ones — restricted to the picked
// values, rolled up to the picked levels — with all other dimensions
// summarized away. Summarizability is checked along the way.
func (o *StatObject) AutoAggregate(q AutoQuery) (*StatObject, error) {
	return o.AutoAggregateCtx(context.Background(), q, nil)
}

// AutoAggregateCtx is AutoAggregate with a context and optional tracing
// span — the cancellable, budget-governed entry point. The context is
// checked between operators and, inside the group-by shaped ones, between
// cell segments, so cancellation latency is bounded by one segment; a
// governor on ctx is charged for every derived object's cells.
func (o *StatObject) AutoAggregateCtx(ctx context.Context, q AutoQuery, sp *obs.Span) (*StatObject, error) {
	if len(q.Where) == 0 {
		return nil, fmt.Errorf("core: AutoAggregate with no conditions; use Total for the grand total")
	}
	cur := o
	var mentioned []string
	for dim := range q.Where {
		mentioned = append(mentioned, dim)
	}
	sort.Strings(mentioned) // deterministic evaluation order
	// step runs one storage operator under a child span, charging the
	// cells its store scan visited and the groups the derived object holds.
	step := func(name string, in *StatObject, op func() (*StatObject, error)) (*StatObject, error) {
		if err := budget.Check(ctx); err != nil {
			return nil, err
		}
		child := sp.Child(name)
		child.AddInt("cells_scanned", int64(in.Cells()))
		out, err := op()
		if err != nil {
			child.SetErr(err)
		} else {
			child.AddInt("groups_out", int64(out.Cells()))
		}
		child.End()
		return out, err
	}
	for _, dim := range mentioned {
		pick := q.Where[dim]
		d, err := cur.sch.Dimension(dim)
		if err != nil {
			return nil, err
		}
		level := pick.Level
		if level == "" {
			level = d.Class.LeafLevel().Name
		}
		li, err := d.Class.LevelIndex(level)
		if err != nil {
			return nil, err
		}
		if len(pick.Values) == 0 {
			return nil, fmt.Errorf("core: empty condition for dimension %q", dim)
		}
		if li == 0 {
			cur, err = step("scan:s-select:"+dim, cur, func() (*StatObject, error) {
				return cur.SSelect(dim, pick.Values...)
			})
		} else {
			// Keep the subtrees under the picked values, then roll up to
			// the picked level; whole subtrees preserve completeness.
			cur, err = step("scan:s-select-level:"+dim, cur, func() (*StatObject, error) {
				return cur.SSelectLevel(dim, level, pick.Values...)
			})
			if err != nil {
				return nil, err
			}
			cur, err = step("scan:s-aggregate:"+dim, cur, func() (*StatObject, error) {
				return cur.SAggregateCtx(ctx, dim, level)
			})
		}
		if err != nil {
			return nil, err
		}
	}
	// Summarize over every unmentioned dimension.
	var drop []string
	for _, d := range cur.sch.Dimensions() {
		if _, ok := q.Where[d.Name]; !ok {
			drop = append(drop, d.Name)
		}
	}
	if len(drop) > 0 {
		if err := budget.Check(ctx); err != nil {
			return nil, err
		}
		child := sp.Child("scan:s-project")
		child.SetStr("dims", strings.Join(drop, ","))
		child.AddInt("cells_scanned", int64(cur.Cells()))
		var err error
		cur, err = cur.SProjectCtx(ctx, drop...)
		if err != nil {
			child.SetErr(err)
			child.End()
			return nil, err
		}
		child.AddInt("groups_out", int64(cur.Cells()))
		child.End()
	}
	return cur, nil
}

// AutoScalar evaluates a query whose every condition picks a single value,
// returning the one inferred number — "the average income of engineers in
// 1980". The measure defaults to the object's only measure.
func (o *StatObject) AutoScalar(q AutoQuery) (float64, error) {
	measure := q.Measure
	if measure == "" {
		if len(o.measures) != 1 {
			return 0, fmt.Errorf("core: object has %d measures; AutoScalar needs Measure set", len(o.measures))
		}
		measure = o.measures[0].Name
	}
	if _, ok := o.byName[measure]; !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownMeasure, measure)
	}
	for dim, pick := range q.Where {
		if len(pick.Values) != 1 {
			return 0, fmt.Errorf("core: AutoScalar condition on %q picks %d values, want 1", dim, len(pick.Values))
		}
	}
	res, err := o.AutoAggregate(q)
	if err != nil {
		return 0, err
	}
	return res.Total(measure)
}
