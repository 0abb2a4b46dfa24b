// Package obs is the engine's zero-dependency telemetry subsystem: the
// one record of each finished query (QueryRecord), a bounded ring of recent
// records with the span tree each renders — the paper's pipeline stages
// (parse → plan → scan → bootstrap-kernel → diagnostic → fallback) — and a
// metrics registry of atomic counters and fixed-bucket histograms rendered
// in the Prometheus text format.
//
// Everything is nil-safe: a nil *Tracer (telemetry disabled) and a nil
// *Registry are no-ops. Nothing in this package runs on the query path
// before the query finishes, and it consumes no engine randomness — answers,
// error bars and diagnostic verdicts are bit-identical with telemetry on or
// off, and two runs with the same seed render the same span structure
// (stages and attributes; only durations vary).
package obs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/work"
)

// Canonical stage names, matching the paper's Figs. 7–9 pipeline
// components (see DESIGN.md).
const (
	StageParse      = "parse"
	StagePlan       = "plan"
	StageScan       = "scan"
	StageBootstrap  = "bootstrap-kernel"
	StageDiagnostic = "diagnostic"
	StageEstimate   = "estimate"
	StageFallback   = "fallback"
)

// PlanBlockTable is the Reason of a plan stage whose query the engine
// planned exact because the block table answers it for no more decode than a
// sample would cost; the stage's PredictedBlocks holds the prediction.
const PlanBlockTable = "block table"

// PlanTooFewRows is the Reason of a plan stage whose query the engine
// planned exact because no group of its sample — an ungrouped query's one
// group among them — can hold enough rows for a diagnosis under its
// predicate; the stage's KeyCeiling, CeilingColumn and SampleRows hold the
// evidence.
const PlanTooFewRows = "too few rows"

// DecodeRatioBuckets lays out the ratio of the blocks a planned-exact scan
// decoded to the blocks the block table predicted.
var DecodeRatioBuckets = []float64{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 4, 16}

// SpanExporter receives finished queries for out-of-process export (see
// internal/obs/export). Implementations must never block: Finish calls
// ExportTrace synchronously on the query path, so exporters enqueue into a
// bounded buffer, drop (metered) on overflow, and render the record's span
// tree off the query path.
type SpanExporter interface {
	ExportTrace(*QueryRecord)
}

// exporterBox wraps the interface so Tracer can hold it in an
// atomic.Pointer (interfaces are not directly atomically storable).
type exporterBox struct{ exp SpanExporter }

// Tracer keeps the records of recently finished queries in a bounded ring,
// renders their span trees when read, and aggregates metrics into a
// Registry. Nil disables everything.
type Tracer struct {
	reg  *Registry
	ring *traceRing
	exp  atomic.Pointer[exporterBox]
}

// NewTracer returns a tracer with an empty registry and trace ring.
func NewTracer(opt Config) *Tracer {
	return &Tracer{reg: NewRegistry(),
		ring: &traceRing{buf: make([]*QueryRecord, opt.ringSize())}}
}

// Registry returns the tracer's metrics registry (nil for a nil tracer).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// SetExporter attaches (or, with nil, detaches) a span exporter; every
// subsequently finished query is offered to it after the ring push.
func (t *Tracer) SetExporter(exp SpanExporter) {
	if t != nil {
		t.exp.Store(&exporterBox{exp: exp})
	}
}

// Recent returns the ring's traces ordered newest first: Recent()[0] is
// the most recently finished query, Recent()[1] the one before it, and so
// on. The ordering is part of the API contract — /debug/queries, Last and
// the shell's -explain all rely on it — and is covered by tests. Each trace
// is rendered from its record here, at read time.
func (t *Tracer) Recent() []TraceSnapshot {
	if t == nil {
		return nil
	}
	recs := t.ring.snapshot()
	out := make([]TraceSnapshot, len(recs))
	for i, r := range recs {
		out[i] = r.Trace()
	}
	return out
}

// Last returns the most recently finished trace.
func (t *Tracer) Last() (TraceSnapshot, bool) {
	if t == nil {
		return TraceSnapshot{}, false
	}
	recs := t.ring.snapshot()
	if len(recs) == 0 {
		return TraceSnapshot{}, false
	}
	return recs[0].Trace(), true
}

// Finish publishes one finished query: its record joins the ring, is
// offered to the exporter, and is observed into the metrics registry. The
// record must not change afterwards.
func (t *Tracer) Finish(rec *QueryRecord) {
	if t == nil {
		return
	}
	t.ring.push(rec)
	if box := t.exp.Load(); box != nil && box.exp != nil {
		box.exp.ExportTrace(rec)
	}
	t.observe(rec)
}

// observe feeds one record into the registry: the query's outcome and
// latency, each top-level stage's latency, the work counters, the kernel's
// throughput per bootstrap stage, each diagnostic stage's ξ resamples and
// verdicts, each fallback, and the route of each aggregate served.
func (t *Tracer) observe(rec *QueryRecord) {
	reg := t.reg
	reg.Counter("aqp_queries_total",
		"Queries answered, by outcome.", "outcome", rec.Outcome).Inc()
	reg.Histogram("aqp_query_duration_seconds",
		"End-to-end local query latency.", LatencyBuckets).Observe(rec.TotalMs / 1e3)
	route := ""
	for i, s := range rec.Stages {
		if s.Stage == StagePlan && !s.Nested {
			route = planRoute(s)
		}
		if !s.Nested {
			reg.Histogram("aqp_stage_duration_seconds",
				"Per-stage local latency (the Figs. 7–9 breakdown).",
				LatencyBuckets, "stage", s.Stage).Observe(s.Ms / 1e3)
		}
		switch s.Stage {
		case StageBootstrap:
			if s.Ms > 0 {
				reg.Histogram("aqp_kernel_rows_per_second",
					"Multi-resample kernel throughput (resamples × rows / wall time).",
					ThroughputBuckets).Observe(float64(s.Work.WeightDraws) / (s.Ms / 1e3))
			}
		case StageDiagnostic:
			reg.Counter("aqp_bootstrap_resamples_total",
				"Bootstrap resample estimates drawn by ξ.").Add(s.Resamples)
			const verdicts = "Diagnostic verdicts, by outcome."
			reg.Counter("aqp_diagnostic_verdicts_total", verdicts, "verdict", "accept").Add(int64(s.Accepted))
			if len(s.Rejects) > 0 {
				reg.Counter("aqp_diagnostic_verdicts_total", verdicts, "verdict", "reject").Add(int64(len(s.Rejects)))
			}
			for _, cause := range s.Rejects {
				reg.Counter("aqp_diagnostic_rejects_total",
					"Diagnostic rejections, by the condition that decided them.", "cause", cause).Inc()
			}
		case StagePlan:
			if s.Reason != PlanBlockTable {
				break
			}
			// Actual against predicted: the scan the plan ran decoded
			// Work.BlocksDecoded blocks (none on a raw table, which decodes
			// nothing), and a prediction of none divides by one.
			for _, scan := range rec.Stages[i+1:] {
				if scan.Stage == StageScan {
					reg.Histogram("aqp_plan_decode_ratio",
						"Blocks a planned-exact scan decoded per block the block table predicted.",
						DecodeRatioBuckets).Observe(float64(scan.Work.BlocksDecoded) / float64(max(s.PredictedBlocks, 1)))
					break
				}
			}
		case StageFallback:
			reg.Counter("aqp_fallbacks_total",
				"Queries (or aggregates) re-answered exactly after the approximate path failed.",
				"reason", s.Reason).Inc()
		}
	}
	observeRoutes(reg, route, rec.Aggs)
	observeWork(reg, rec.Work())
}

// The routes of aqp_aggregates_total.
const (
	routeSample     = "sample"       // served from the sample
	routeFallback   = "fallback"     // rejected and re-answered exactly
	routeBlockTable = "block_table"  // planned exact: the block table costs less
	routeTooFewRows = "too_few_rows" // planned exact: no aggregate can be diagnosed
	routeExact      = "exact"        // exact on request, or with no sample to run on
)

// planRoute is the route of the aggregates a top-level plan stage served:
// the exact routes by their reason, and the sample for an approximate plan,
// whose rejected aggregates observeRoutes moves to the fallback.
func planRoute(s StageRecord) string {
	switch {
	case s.Reason == PlanBlockTable:
		return routeBlockTable
	case s.Reason == PlanTooFewRows:
		return routeTooFewRows
	case s.SampleRows == 0:
		return routeExact
	}
	return routeSample
}

// observeRoutes counts aggs, the aggregates a query served, on the route of
// its last top-level plan: an aggregate of a sample plan answered exactly
// fell back. A replayed answer planned nothing and counts on no route.
func observeRoutes(reg *Registry, route string, aggs []AggRecord) {
	if route == "" || len(aggs) == 0 {
		return
	}
	fellBack := 0
	for _, a := range aggs {
		if route == routeSample && a.Exact {
			fellBack++
		}
	}
	const help = "Aggregates served, by route: sample, fallback (rejected and re-answered exactly), " +
		"block_table (planned exact: the block table costs less), " +
		"too_few_rows (planned exact: the sample holds too few filtered rows for any diagnosis), exact (on request)."
	if n := len(aggs) - fellBack; n > 0 {
		reg.Counter("aqp_aggregates_total", help, "route", route).Add(int64(n))
	}
	if fellBack > 0 {
		reg.Counter("aqp_aggregates_total", help, "route", routeFallback).Add(int64(fellBack))
	}
}

// observeWork adds the work to the engine's work counters.
func observeWork(reg *Registry, w work.Counters) {
	reg.Counter("aqp_exec_subqueries_total", "Logical subqueries executed.").Add(int64(w.Subqueries))
	reg.Counter("aqp_exec_scans_total", "Physical passes over stored samples.").Add(int64(w.Scans))
	reg.Counter("aqp_exec_rows_scanned_total", "Base-table rows read.").Add(w.RowsScanned)
	reg.Counter("aqp_exec_bytes_scanned_total", "Base-table bytes read.").Add(w.BytesScanned)
	reg.Counter("aqp_exec_blocks_skipped_total", "Zone-map blocks pruned from predicate evaluation.").Add(w.BlocksSkipped)
	reg.Counter("aqp_storage_blocks_skipped_total", "Storage blocks never decoded thanks to zone-map pruning.").Add(w.BlocksSkipped)
	reg.Counter("aqp_storage_blocks_decoded_total", "Storage blocks decoded from compressed/mmap columns.").Add(w.BlocksDecoded)
	reg.Counter("aqp_storage_decode_ns_total", "Wall nanoseconds spent decoding storage blocks.").Add(w.DecodeNanos)
	reg.Counter("aqp_storage_cache_hits_total", "Storage blocks served from the decoded-block cache.").Add(w.CacheHits)
	reg.Counter("aqp_storage_cache_bytes_total", "Bytes copied out of the decoded-block cache.").Add(w.CacheBytes)
	reg.Counter("aqp_exec_weight_draws_total", "Poisson resampling weight draws.").Add(w.WeightDraws)
	reg.Counter("aqp_exec_diag_subqueries_total", "Diagnostic subsample query executions.").Add(int64(w.DiagSubqueries))
	reg.Counter("aqp_exec_tasks_total", "Parallel tasks launched locally.").Add(int64(w.Tasks))
}

// Trace renders the record as the span tree every trace reader takes — the
// ring, /debug/queries, the Chrome trace, FormatTrace and the OTLP exporter:
// one span per top-level stage, a fallback's plan and scan as its children,
// and under the last diagnostic stage one "verdict" child per aggregate the
// diagnostic decided, carrying its evidence. Verdicts are not timed on
// their own: each starts with its stage and has no duration.
func (r *QueryRecord) Trace() TraceSnapshot {
	t := TraceSnapshot{ID: r.QID, SQL: r.SQL, Start: r.Start, TotalMs: r.TotalMs,
		QueueWaitMs: r.QueueWaitMs, Outcome: r.Outcome, Err: r.Err}
	if tc := r.TraceContext; tc.Valid() {
		t.TraceID, t.SpanID, t.ParentSpanID = tc.TraceIDString(), tc.SpanIDString(), tc.ParentString()
	}
	lastDiag := -1
	for i, s := range r.Stages {
		if s.Stage == StageDiagnostic {
			lastDiag = i
		}
	}
	for i, s := range r.Stages {
		span := r.span(s, i == lastDiag)
		if n := len(t.Spans); s.Nested && n > 0 {
			t.Spans[n-1].Children = append(t.Spans[n-1].Children, span)
			continue
		}
		t.Spans = append(t.Spans, span)
	}
	return t
}

// attrs collects one span's attributes. Counts of zero are left out, so a
// counter only appears on a span that did the work; non-finite floats become
// strings, so a trace always encodes as JSON.
type attrs map[string]any

func (a attrs) count(key string, n int64) {
	if n != 0 {
		a[key] = n
	}
}

func (a attrs) float(key string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		a[key] = formatFloat(v)
		return
	}
	a[key] = v
}

// span renders one stage, with the record's verdicts as its children when
// verdicts is set.
func (r *QueryRecord) span(s StageRecord, verdicts bool) SpanSnapshot {
	out := SpanSnapshot{Stage: s.Stage, StartMs: s.StartMs, Ms: s.Ms}
	a := attrs{}
	switch s.Stage {
	case StageParse:
		if s.Table != "" {
			a["table"] = s.Table
		}
		a.count("aggregates", int64(s.Aggregates))
	case StagePlan:
		if s.SampleRows == 0 || s.Reason != "" {
			a["mode"] = "exact"
			switch s.Reason {
			case PlanBlockTable:
				a["reason"] = s.Reason
				a["predicted_blocks"] = int64(s.PredictedBlocks)
			case PlanTooFewRows:
				a["reason"] = s.Reason
				a["key_ceiling"] = int64(s.KeyCeiling)
				if s.CeilingColumn != "" {
					a["ceiling_column"] = s.CeilingColumn
				}
				a["sample_rows"] = int64(s.SampleRows)
			}
			break
		}
		a["mode"] = "approximate"
		a.count("sample_rows", int64(s.SampleRows))
		a.count("bootstrap_k", int64(s.K))
		a["diagnostics"] = s.Diagnostics
	case StageScan:
		a.count("verified_bytes", s.VerifiedBytes)
	case StageBootstrap:
		a["k"] = int64(s.K)
		a.count("resamples", s.Resamples)
	case StageEstimate:
		a.count("technique_closed-form", int64(s.ClosedForm))
		a.count("technique_bootstrap", int64(s.Bootstrapped))
		a.count("technique_none", int64(s.Unbarred))
		a.float("max_rel_err", s.MaxRelErr)
	case StageFallback:
		a["reason"] = s.Reason
	}
	w := s.Work
	a.count("subqueries", int64(w.Subqueries))
	a.count("scans", int64(w.Scans))
	a.count("rows_scanned", w.RowsScanned)
	a.count("bytes_scanned", w.BytesScanned)
	a.count("rows_after_filter", w.RowsAfterFilter)
	a.count("blocks_skipped", w.BlocksSkipped)
	a.count("blocks_decoded", w.BlocksDecoded)
	a.count("decode_ns", w.DecodeNanos)
	a.count("cache_hits", w.CacheHits)
	a.count("cache_bytes", w.CacheBytes)
	a.count("weight_draws", w.WeightDraws)
	a.count("diag_subqueries", int64(w.DiagSubqueries))
	a.count("tasks", int64(w.Tasks))
	if s.Stage == StageDiagnostic {
		a.count("accepted", int64(s.Accepted))
		a.count("rejected", int64(len(s.Rejects)))
	}
	if verdicts {
		out.Children = r.verdicts(s.StartMs)
	}
	if len(a) > 0 {
		out.Attrs = a
	}
	return out
}

// verdicts renders one child per aggregate the diagnostic decided, starting
// at start.
func (r *QueryRecord) verdicts(start float64) []SpanSnapshot {
	var out []SpanSnapshot
	idx := 0 // the aggregate's position in its group
	for i, ag := range r.Aggs {
		if i > 0 && ag.Group == r.Aggs[i-1].Group {
			idx++
		} else {
			idx = 0
		}
		if !ag.diagnosed() {
			continue
		}
		a := attrs{"agg": int64(idx), "verdict": "accept"}
		if ag.Group != "" {
			a["group"] = ag.Group
		}
		if ag.Rejected {
			a["verdict"], a["cause"], a["reason"] = "reject", ag.Cause, ag.Reason
		}
		a.count("subsample_queries", int64(ag.SubsampleQueries))
		a.count("rungs_run", int64(ag.RungsRun))
		a.count("decided_after", int64(ag.DecidedAfter))
		for _, st := range ag.Rungs {
			a.float(fmt.Sprintf("delta_b%d", st.Size), st.Delta)
			a.float(fmt.Sprintf("sigma_b%d", st.Size), st.Sigma)
			a.float(fmt.Sprintf("pi_b%d", st.Size), st.Pi)
		}
		out = append(out, SpanSnapshot{Stage: "verdict", StartMs: start, Attrs: a})
	}
	return out
}

// Outcome classifies a query's final error into the label used by
// aqp_queries_total and TraceSnapshot.Outcome: "ok", "cancelled" (the error
// wraps context.Canceled or context.DeadlineExceeded — an abandoned query,
// not an engine failure), or "error".
func Outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	default:
		return "error"
	}
}

// TraceSnapshot is a finished query trace, as served by /debug/queries
// (newest first — the ring's Recent ordering is preserved in the JSON).
type TraceSnapshot struct {
	ID  uint64 `json:"id"`
	SQL string `json:"sql"`
	// TraceID/SpanID/ParentSpanID are the query's W3C trace-context
	// identity (32/16/16 lowercase hex): the trace ID a client sent via
	// traceparent (or a server-minted root), the span this process owns
	// for the query, and the caller's span ("" for a root). They join
	// the span ring to the event log, history records, audit records and
	// exported OTLP spans.
	TraceID      string    `json:"trace_id,omitempty"`
	SpanID       string    `json:"span_id,omitempty"`
	ParentSpanID string    `json:"parent_span_id,omitempty"`
	Start        time.Time `json:"start"`
	TotalMs      float64   `json:"total_ms"`
	// QueueWaitMs is the admission-queue delay before execution began
	// (zero for queries that bypassed a serving layer).
	QueueWaitMs float64        `json:"queue_wait_ms,omitempty"`
	Outcome     string         `json:"outcome,omitempty"`
	Err         string         `json:"error,omitempty"`
	Spans       []SpanSnapshot `json:"spans"`
}

// SpanSnapshot is one recorded span.
type SpanSnapshot struct {
	Stage string `json:"stage"`
	// StartMs is the span's start offset from the query's start — the
	// field the Chrome trace-event export needs to lay spans on a
	// timeline rather than just report durations.
	StartMs  float64        `json:"start_ms"`
	Ms       float64        `json:"ms"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Structure renders the trace's timing-independent shape — stage names,
// nesting and attributes, durations excluded — for determinism checks:
// two runs with the same seed must produce equal structures.
func (t TraceSnapshot) Structure() string {
	var b strings.Builder
	b.WriteString(t.SQL + "\n")
	for _, s := range t.Spans {
		s.write(&b, 1, false)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// FormatTrace renders a human-readable span tree (the aqpshell -explain
// output): total latency, outcome, queue wait when the query waited for an
// admission slot, and the error for failed queries.
func FormatTrace(t TraceSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace q%d: %.3fms total", t.ID, t.TotalMs)
	if t.Outcome != "" {
		fmt.Fprintf(&b, ", outcome=%s", t.Outcome)
	}
	if t.QueueWaitMs > 0 {
		fmt.Fprintf(&b, ", queue_wait=%.3fms", t.QueueWaitMs)
	}
	if t.Err != "" {
		fmt.Fprintf(&b, " (error: %s)", t.Err)
	}
	b.WriteByte('\n')
	for _, s := range t.Spans {
		s.write(&b, 1, true)
	}
	return b.String()
}

// write renders the span subtree one line per span: its stage, its duration
// when timed, and its attributes sorted by key — as (k=v,...) untimed, as
// "  k=v" pairs timed.
func (s SpanSnapshot) write(b *strings.Builder, depth int, timed bool) {
	b.WriteString(strings.Repeat("  ", depth))
	if timed {
		fmt.Fprintf(b, "%-18s %9.3fms", s.Stage, s.Ms)
	} else {
		b.WriteString(s.Stage)
	}
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		switch {
		case timed:
			b.WriteString("  ")
		case i == 0:
			b.WriteByte('(')
		default:
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s=%v", k, s.Attrs[k])
	}
	if !timed && len(keys) > 0 {
		b.WriteByte(')')
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.write(b, depth+1, timed)
	}
}

// traceRing is a bounded ring of finished query records.
type traceRing struct {
	mu   sync.Mutex
	buf  []*QueryRecord
	next int
	n    int
}

func (r *traceRing) push(rec *QueryRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// snapshot returns the retained records, newest first.
func (r *traceRing) snapshot() []*QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*QueryRecord, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
