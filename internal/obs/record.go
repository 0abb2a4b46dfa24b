package obs

import (
	"time"

	"repro/internal/work"
)

// QueryRecord is one finished query's outcome, built once by the engine,
// tracer or not, and handed unchanged to every per-query sink: the tracer
// keeps it and renders its span tree (Tracer.Finish), the event log writes it
// as a JSON line (EventLog.Emit), the durable history frames it
// (history.Store.AppendQuery) and the calibration watchdog windows and
// audits it (watchdog.Observe). Sinks never write to it — the watchdog may
// hold it until a background audit completes.
//
// The JSON tags are the history's on-disk schema. Fields tagged "-" never
// reach a history frame.
type QueryRecord struct {
	// Kind is the event-log record kind: "query" (the default) or "audit",
	// the line an exact audit re-execution emits about the query it
	// audited. The history carries its kind on the frame instead.
	Kind string `json:"-"`
	// QID is the engine's id for the query, the qN its errors carry.
	QID uint64 `json:"qid"`
	// TraceID is the query's distributed-trace id (32 hex chars) — the join
	// key back to the span ring, event log, audits and any exported OTLP
	// spans. TraceContext is the whole identity, spans included.
	TraceID      string       `json:"trace_id,omitempty"`
	TraceContext TraceContext `json:"-"`
	// Start is when the engine took the query: stages start from it.
	Start     time.Time `json:"-"`
	SQL       string    `json:"sql"`
	Table     string    `json:"table,omitempty"`
	Sample    string    `json:"sample,omitempty"`    // sample row count, or "exact"
	Predicate string    `json:"predicate,omitempty"` // canonical predicate signature
	Outcome   string    `json:"outcome"`             // "ok" | "cancelled" | "error"
	// Err is the failure message of a query whose Outcome is not "ok".
	Err         string  `json:"-"`
	TotalMs     float64 `json:"total_ms"`
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	// Stages are the stages the query ran, in the order they began.
	// StagesMs sums the top-level ones' durations by stage name.
	Stages   []StageRecord      `json:"-"`
	StagesMs map[string]float64 `json:"stages_ms,omitempty"`
	// Selectivity is rows passing the predicate over rows inspected
	// (-1 when the query scanned nothing).
	Selectivity float64 `json:"selectivity"`
	// SampleFraction is sample rows over population rows (1 for exact
	// execution, 0 when the population size is unknown).
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	// KBudget is the bootstrap replicate count the plan allowed; KUsed is
	// the largest count any aggregate ran: KBudget, or 0 when none was
	// resampled.
	KBudget  int  `json:"k_budget,omitempty"`
	KUsed    int  `json:"k_used,omitempty"`
	FellBack bool `json:"fell_back,omitempty"`
	// SampleRows is the sample's row count (0 for exact execution).
	SampleRows int `json:"-"`
	// Cached marks an answer replayed from the answer cache — no scan,
	// decode, or resampling happened for this record.
	Cached bool        `json:"-"`
	Aggs   []AggRecord `json:"aggs,omitempty"`
}

// Work sums the physical work of every stage: the answer's counters.
func (r *QueryRecord) Work() work.Counters {
	var w work.Counters
	for _, s := range r.Stages {
		w.Add(s.Work)
	}
	return w
}

// StageRecord is one stage of a query: when it began after the query's
// start, how long it ran, the work it did and what it decided. The
// diagnostic and the bootstrap kernel, spread over the (group, aggregate)
// loop, begin with their first piece and run for the sum of their pieces.
// Detail fields are zero on the stages they do not describe.
type StageRecord struct {
	// Stage is one of the Stage* names.
	Stage string
	// Nested marks a fallback's exact plan and scan: they belong to the
	// fallback stage before them.
	Nested  bool
	StartMs float64
	Ms      float64
	Work    work.Counters
	// Parse: the table queried and the number of aggregates.
	Table      string
	Aggregates int
	// Plan: the sample's rows (0 for an exact plan, unless Reason says why
	// it skipped that sample), the bootstrap replicate count and whether the
	// diagnostic runs. Bootstrap: the replicate count.
	SampleRows  int
	K           int
	Diagnostics bool
	// Scan: the payload bytes it checked against their store's sums before
	// reading them — the first read of a persisted sample's columns.
	VerifiedBytes int64
	// Plan, when Reason is PlanBlockTable: the column blocks the block table
	// predicted the exact plan decodes, which the engine chose over a sample.
	PredictedBlocks int
	// Plan, when Reason is PlanTooFewRows: the most rows one group can
	// filter to in the skipped sample of SampleRows rows — one key of the
	// GROUP BY column, or an ungrouped query's one group — and the column
	// whose restriction by the predicate bounded them, a range column's
	// window or a string column's equality ("" when the whole sample did).
	KeyCeiling    int
	CeilingColumn string
	// Resamples counts the resample estimates the stage drew: the bootstrap
	// kernel's, or the diagnostic's bootstrap ξ's.
	Resamples int64
	// Diagnostic: its accepts, and the cause of each of its rejections.
	Accepted int
	Rejects  []string
	// Estimate: the error bars served by each technique, and the largest
	// relative error.
	ClosedForm, Bootstrapped, Unbarred int
	MaxRelErr                          float64
	// Fallback: why the query was re-answered exactly. Plan: why the engine
	// planned exact — PlanBlockTable when the block table answers the query
	// for no more decode than a sample would cost, PlanTooFewRows when no
	// group of the sample can be diagnosed.
	Reason string
}

// AggRecord is one aggregate output's outcome inside a QueryRecord. The
// interval is kept as the two floats an estimator.Interval stores, so the
// watchdog's coverage test and its NaN check read the bits the estimator
// produced; Lo and Hi derive the endpoints the same way the estimator does.
type AggRecord struct {
	// Group is the GROUP BY key ("" for ungrouped queries); audits match
	// on (Group, Name).
	Group string `json:"group,omitempty"`
	// Name is the output alias, e.g. "AVG(Time)".
	Name string `json:"name,omitempty"`
	// Kind is the aggregate kind ("AVG", "SUM", ..., or the UDF name).
	Kind string `json:"kind"`
	// Estimate is the answer θ(S), or the exact answer after a fallback.
	Estimate  float64 `json:"-"`
	Center    float64 `json:"center,omitempty"`
	HalfWidth float64 `json:"half_width,omitempty"`
	// RelErr is the half-width over |estimate| (-1 in the history when
	// undefined: exact answers and zero-centered estimates).
	RelErr    float64 `json:"rel_err"`
	Technique string  `json:"technique,omitempty"`
	// Rejected reports the runtime diagnostic's rejection; Cause types it
	// (a diagnostic.Cause name, "" when accepted).
	Rejected bool   `json:"rejected,omitempty"`
	Cause    string `json:"cause,omitempty"`
	// RungsRun and DecidedAfter say where the diagnostic's ladder stopped:
	// the sizes it ran ξ at, and how many of the deciding size's subsamples
	// it had evaluated (0 when no diagnostic ran).
	RungsRun     int `json:"rungs_run,omitempty"`
	DecidedAfter int `json:"decided_after,omitempty"`
	// Reason, SubsampleQueries and Rungs are the rest of the diagnostic's
	// evidence: the rejection's explanation, Algorithm 1's cost in subsample
	// queries, and the sizes it completed, smallest first.
	Reason           string `json:"-"`
	SubsampleQueries int    `json:"-"`
	Rungs            []Rung `json:"-"`
	// Exact marks an answer computed on the full dataset (fallback or
	// exact execution); its interval covers trivially.
	Exact bool `json:"exact,omitempty"`
}

// diagnosed reports whether the diagnostic reached a verdict on the
// aggregate: a reject, or an accept, which runs every rung.
func (a AggRecord) diagnosed() bool { return a.Rejected || a.RungsRun > 0 }

// Rung is one completed size of the diagnostic's ladder: Algorithm 1's
// subsample size b, the true half-width x, and Δ, σ and π at that size.
type Rung struct {
	Size             int
	TrueHalfWidth    float64
	Delta, Sigma, Pi float64
}

// Lo returns the interval's lower endpoint.
func (a AggRecord) Lo() float64 { return a.Center - a.HalfWidth }

// Hi returns the interval's upper endpoint.
func (a AggRecord) Hi() float64 { return a.Center + a.HalfWidth }

// AuditRecord is one audited aggregate: the watchdog re-ran the query
// exactly and compared the served interval against the ground truth. The
// identity fields are the audited QueryRecord's.
type AuditRecord struct {
	QID       uint64 `json:"qid"`
	TraceID   string `json:"trace_id,omitempty"`
	Table     string `json:"table,omitempty"`
	Sample    string `json:"sample,omitempty"`
	Predicate string `json:"predicate,omitempty"`
	// Kind is the aggregate kind; Agg the output alias.
	Kind    string  `json:"kind"`
	Agg     string  `json:"agg"`
	Group   string  `json:"group,omitempty"`
	Covered bool    `json:"covered"`
	Truth   float64 `json:"truth"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
}
