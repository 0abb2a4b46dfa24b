package obs

// QueryRecord is one finished query's outcome, built once by the engine
// and handed unchanged to every per-query sink: the event log renders it as
// a JSON line (EventLog.Emit), the durable history frames it
// (history.Store.AppendQuery) and the calibration watchdog windows and
// audits it (watchdog.Observe). Sinks read it and never write to it — the
// watchdog may hold it until a background audit completes.
//
// The JSON tags are the history's on-disk schema. Fields tagged "-" are the
// event log's view of the physical work and the failure text; they never
// reach a history frame.
type QueryRecord struct {
	// Kind is the event-log record kind: "query" (the default) or "audit",
	// the line an exact audit re-execution emits about the query it
	// audited. The history carries its kind on the frame instead.
	Kind string `json:"-"`
	QID  uint64 `json:"qid"`
	// TraceID is the query's distributed-trace id (32 hex chars, "" when
	// none was minted) — the join key back to the span ring, event log,
	// audits and any exported OTLP spans.
	TraceID   string `json:"trace_id,omitempty"`
	SQL       string `json:"sql"`
	Table     string `json:"table,omitempty"`
	Sample    string `json:"sample,omitempty"`    // sample row count, or "exact"
	Predicate string `json:"predicate,omitempty"` // canonical predicate signature
	Outcome   string `json:"outcome"`             // "ok" | "cancelled" | "error"
	// Err is the failure message of a query whose Outcome is not "ok".
	Err         string             `json:"-"`
	TotalMs     float64            `json:"total_ms"`
	QueueWaitMs float64            `json:"queue_wait_ms,omitempty"`
	StagesMs    map[string]float64 `json:"stages_ms,omitempty"`
	// Selectivity is rows passing the predicate over rows inspected
	// (-1 when the query scanned nothing).
	Selectivity float64 `json:"selectivity"`
	// SampleFraction is sample rows over population rows (1 for exact
	// execution, 0 when the population size is unknown).
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	// KBudget is the bootstrap replicate count the plan allowed; KUsed is
	// the largest count any aggregate ran: KBudget, or 0 when none was
	// resampled.
	KBudget    int  `json:"k_budget,omitempty"`
	KUsed      int  `json:"k_used,omitempty"`
	SharedScan bool `json:"shared_scan,omitempty"`
	FellBack   bool `json:"fell_back,omitempty"`
	// SampleRows is the sample's row count (0 for exact execution).
	SampleRows int `json:"-"`
	// Cached marks an answer replayed from the answer cache — no scan,
	// decode, or resampling happened for this record.
	Cached bool `json:"-"`
	// BlocksSkipped counts zone-map blocks the scan pruned; BlocksDecoded
	// the compressed blocks it decoded, in DecodeNs; CacheHits the decoded
	// blocks served from the block cache, CacheBytes the decoded bytes
	// those hits saved.
	BlocksSkipped int64       `json:"-"`
	BlocksDecoded int64       `json:"-"`
	DecodeNs      int64       `json:"-"`
	CacheHits     int64       `json:"-"`
	CacheBytes    int64       `json:"-"`
	Aggs          []AggRecord `json:"aggs,omitempty"`
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
	// Exact marks an answer computed on the full dataset (fallback or
	// exact execution); its interval covers trivially.
	Exact bool `json:"exact,omitempty"`
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
