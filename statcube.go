// Package statcube is a Statistical Object engine for Go: a library for
// modeling, querying, and efficiently storing multidimensional summary
// data, reproducing the system surveyed (and called for) in Arie
// Shoshani's "OLAP and Statistical Databases: Similarities and
// Differences" (PODS 1997).
//
// The central type is the StatObject: summary measures with their summary
// functions and additivity types, over a cross product of dimensions, each
// carrying a classification hierarchy. On top of it the package exposes:
//
//   - the statistical algebra (S-select, S-project, S-aggregation,
//     S-union) and the OLAP operators (slice, dice, roll-up, drill-down),
//     with summarizability enforced;
//   - the CUBE operator with the reserved ALL value;
//   - automatic aggregation and the concise query language
//     ("SHOW average income WHERE year = 1980 AND professional class = engineer");
//   - 2-D statistical table rendering with marginals;
//   - classification versioning and matching for incompatible category
//     sets;
//   - micro→macro derivation and the inference-control layer (query-set
//     restriction, auditing, sampling, perturbation, cell suppression, and
//     the Denning–Schlörer tracker that motivates them).
//
// The physical layer (transposed files, bit-transposed columns, header
// compression, chunked and extendible arrays, view materialization) lives
// in the internal packages and is exercised by the benchmark suite; see
// DESIGN.md and EXPERIMENTS.md.
package statcube

import (
	"context"

	"statcube/internal/budget"
	"statcube/internal/catalog"
	"statcube/internal/core"
	"statcube/internal/hierarchy"
	"statcube/internal/metadata"
	"statcube/internal/obs"
	"statcube/internal/privacy"
	"statcube/internal/query"
	"statcube/internal/relstore"
	"statcube/internal/schema"
	"statcube/internal/table"
)

// Core model types.
type (
	// StatObject is a statistical object: measures over classified
	// dimensions. See core.StatObject for the full method set.
	StatObject = core.StatObject
	// Measure is a summary attribute with its function and additivity type.
	Measure = core.Measure
	// AggFunc is a summary function (Sum, Count, Avg, Min, Max).
	AggFunc = core.AggFunc
	// MeasureType is an additivity class (Flow, Stock, ValuePerUnit).
	MeasureType = core.MeasureType
	// Value is a category value.
	Value = core.Value
	// AutoQuery is a concise automatic-aggregation query.
	AutoQuery = core.AutoQuery
	// Pick is one AutoQuery condition.
	Pick = core.Pick
	// CubeCell is one row of CUBE output.
	CubeCell = core.CubeCell
)

// Summary functions.
const (
	Sum   = core.Sum
	Count = core.Count
	Avg   = core.Avg
	Min   = core.Min
	Max   = core.Max
)

// Measure additivity types.
const (
	Flow         = core.Flow
	Stock        = core.Stock
	ValuePerUnit = core.ValuePerUnit
)

// All is the reserved ALL category value of CUBE output.
const All = core.All

// Schema types.
type (
	// Schema is the STORM-style schema graph of a statistical object.
	Schema = schema.Graph
	// Dimension is one dimension with its classification.
	Dimension = schema.Dimension
	// DimensionGroup is an X-node grouping dimensions by subject.
	DimensionGroup = schema.Group
	// Layout2D assigns dimensions to table rows and columns.
	Layout2D = schema.Layout2D
)

// Classification types.
type (
	// Classification is a multi-level category hierarchy.
	Classification = hierarchy.Classification
	// ClassificationBuilder assembles a Classification.
	ClassificationBuilder = hierarchy.Builder
	// VersionedClassification tracks a classification over time.
	VersionedClassification = hierarchy.Versioned
	// Interval is an inclusive integer interval category (age groups…).
	Interval = hierarchy.Interval
)

// Sentinel errors re-exported for errors.Is checks.
var (
	ErrNotSummarizable = core.ErrNotSummarizable
	ErrUnknownMeasure  = core.ErrUnknownMeasure
	ErrUnionConflict   = core.ErrUnionConflict
	ErrNoFinerData     = core.ErrNoFinerData
	ErrNonStrict       = hierarchy.ErrNonStrict
	ErrIncomplete      = hierarchy.ErrIncomplete
	ErrRestricted      = privacy.ErrRestricted
)

// NewSchema creates a schema graph with a flat dimension list.
func NewSchema(name string, dims ...Dimension) (*Schema, error) {
	return schema.New(name, dims...)
}

// NewGroupedSchema creates a schema graph from an X-node tree.
func NewGroupedSchema(name string, root *DimensionGroup) (*Schema, error) {
	return schema.NewGrouped(name, root)
}

// New creates an empty statistical object.
func New(sch *Schema, measures []Measure) (*StatObject, error) {
	return core.New(sch, measures)
}

// NewHierarchy starts a classification builder with its leaf level.
func NewHierarchy(name, leafLevel string, leafValues ...Value) *ClassificationBuilder {
	return hierarchy.NewBuilder(name, leafLevel, leafValues...)
}

// FlatDimension builds a dimension without hierarchy from its values.
func FlatDimension(name string, values ...Value) Dimension {
	return Dimension{Name: name, Class: hierarchy.FlatClassification(name, values...)}
}

// Query parses and evaluates a concise statistical query ("SHOW measure
// [BY ...] [WHERE ...]"), returning the result as a statistical object.
func Query(o *StatObject, q string) (*StatObject, error) {
	return query.RunCtx(context.Background(), o, q)
}

// QueryCtx is Query under a context: cancellation and deadlines abort the
// evaluation between operators and between cell segments inside them,
// returning the typed ErrCanceled; a Governor attached with WithGovernor
// caps the memory and cells the query may consume (ErrBudgetExceeded).
func QueryCtx(ctx context.Context, o *StatObject, q string) (*StatObject, error) {
	return query.RunCtx(ctx, o, q)
}

// QueryScalar evaluates a concise query that reduces to a single number.
func QueryScalar(o *StatObject, q string) (float64, error) {
	return query.RunScalarCtx(context.Background(), o, q)
}

// QueryScalarCtx is QueryScalar under a context (see QueryCtx).
func QueryScalarCtx(ctx context.Context, o *StatObject, q string) (float64, error) {
	return query.RunScalarCtx(ctx, o, q)
}

// RenderTable draws a statistical object as a 2-D statistical table.
func RenderTable(o *StatObject, layout Layout2D, opts TableOptions) (string, error) {
	return table.Render(o, layout, opts)
}

// TableOptions configure table rendering.
type TableOptions = table.Options

// Privacy layer re-exports.
type (
	// Microdata is a table of individual records behind a privacy Guard.
	Microdata = privacy.Table
	// Guard releases only summary statistics under inference controls.
	Guard = privacy.Guard
	// GuardOption configures a Guard.
	GuardOption = privacy.GuardOption
	// Tracker is a Denning–Schlörer general tracker.
	Tracker = privacy.Tracker
	// Term is one literal of a characteristic formula.
	Term = privacy.Term
	// Conj is a conjunction of terms.
	Conj = privacy.Conj
	// Formula is a disjunction of conjunctions.
	Formula = privacy.Formula
)

// Formula constructors.
var (
	// C builds a single-conjunction formula from terms.
	C = privacy.C
	// Not negates a term.
	Not = privacy.Not
	// OrFormulas combines formulas disjunctively.
	OrFormulas = privacy.Or
)

// Privacy constructors and controls.
var (
	NewMicrodata           = privacy.NewTable
	NewGuard               = privacy.NewGuard
	WithSizeRestriction    = privacy.WithSizeRestriction
	WithMinQuerySetSize    = privacy.WithMinQuerySetSize
	WithOverlapAudit       = privacy.WithOverlapAudit
	WithSampling           = privacy.WithSampling
	WithOutputPerturbation = privacy.WithOutputPerturbation
	FindGeneralTracker     = privacy.FindGeneralTracker
	FindIndividualTracker  = privacy.FindIndividualTracker
)

// Catalog types: the directory-driven organization of [CS81].
type (
	// Catalog is a searchable directory of statistical objects.
	Catalog = catalog.Catalog
	// CatalogEntry is one catalogued dataset.
	CatalogEntry = catalog.Entry
)

// NewCatalog creates an empty dataset directory.
var NewCatalog = catalog.New

// MacroFromMicro derives a statistical object from a micro-data relation.
var MacroFromMicro = metadata.MacroFromMicro

// Relation re-exports: the relational representation used for micro-data.
type (
	// Relation is a typed in-memory relation.
	Relation = relstore.Relation
	// RelColumn describes one relation attribute.
	RelColumn = relstore.Column
	// RelValue is one typed relational value.
	RelValue = relstore.Value
)

// Relational constructors.
var (
	NewRelation = relstore.NewRelation
	RelString   = relstore.S
	RelInt      = relstore.I
	RelFloat    = relstore.F
)

// Classification matching (Section 5.7).
var (
	ParseIntervals       = hierarchy.ParseIntervals
	RefineIntervals      = hierarchy.Refine
	RealignIntervals     = hierarchy.Realign
	MergeAlignedDatasets = hierarchy.MergeAligned
)

// Observability re-exports: the engine-wide metrics registry and the
// query tracer behind EXPLAIN ANALYZE. See DESIGN.md "Observability".
type (
	// Span is one node of a query-execution trace.
	Span = obs.Span
	// SpanRenderOptions configure Span.Render.
	SpanRenderOptions = obs.RenderOptions
	// MetricsSnapshot is a point-in-time copy of the metrics registry.
	MetricsSnapshot = obs.Snapshot
)

// QueryExplain runs a concise query like Query, additionally returning the
// execution trace — EXPLAIN ANALYZE for statistical objects. The span is
// returned even when the query fails, showing how far execution got.
func QueryExplain(o *StatObject, q string) (*StatObject, *Span, error) {
	return query.RunExplainCtx(context.Background(), o, q)
}

// QueryExplainCtx is QueryExplain under a context: when the query is cut
// short — canceled, timed out, or over budget — the root span carries a
// "canceled" attribute with the cause, so the trace shows both where
// execution stopped and why.
func QueryExplainCtx(ctx context.Context, o *StatObject, q string) (*StatObject, *Span, error) {
	return query.RunExplainCtx(ctx, o, q)
}

// Resource governance re-exports: attach a Governor to a context to cap
// what queries and cube builds evaluated under it may consume. See
// DESIGN.md "Resource governance".
type (
	// Governor meters memory reservations and cell quotas for one query or
	// workload.
	Governor = budget.Governor
	// Limits configures a Governor; zero fields mean unlimited.
	Limits = budget.Limits
)

// Governance constructors and sentinel errors.
var (
	// NewGovernor creates a governor enforcing the limits.
	NewGovernor = budget.NewGovernor
	// WithGovernor attaches a governor to a context; engine entry points
	// taking that context charge their allocations against it.
	WithGovernor = budget.WithGovernor
	// ErrBudgetExceeded reports a refused reservation or quota (errors.Is).
	ErrBudgetExceeded = budget.ErrBudgetExceeded
	// ErrCanceled reports an evaluation aborted by context cancellation or
	// deadline; errors.Is also matches context.Canceled /
	// context.DeadlineExceeded as appropriate.
	ErrCanceled = budget.ErrCanceled
)

// Metrics snapshots the process-wide metrics registry.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// SetObservability turns the engine's metrics and tracing on or off
// process-wide (on by default; the disabled fast path is one atomic load
// per instrumented operation).
func SetObservability(on bool) { obs.SetEnabled(on) }

// MetricsServer is the handle for a running ServeMetrics endpoint: Addr
// reports the bound address, Shutdown drains connections gracefully, Close
// stops immediately.
type MetricsServer = obs.Server

// ServeMetrics starts the opt-in observability HTTP endpoint (/metrics,
// /metrics.json, /debug/pprof/) on addr; stop it with Shutdown or Close on
// the returned handle.
func ServeMetrics(addr string) (*MetricsServer, error) { return obs.Serve(addr) }
