// Package obs is the engine's zero-dependency telemetry subsystem: per-query
// trace spans mirroring the paper's pipeline stages (parse → plan → scan →
// bootstrap-kernel → diagnostic → fallback), a bounded ring of recent query
// traces, and a metrics registry of atomic counters and fixed-bucket
// histograms rendered in the Prometheus text format.
//
// Everything is nil-safe: a nil *Tracer (telemetry disabled) propagates nil
// *QueryTrace, *Span and *Registry values whose methods are no-ops, so
// instrumented hot paths pay one pointer comparison and nothing else.
// Tracing never consumes engine randomness — answers, error bars and
// diagnostic verdicts are bit-identical with telemetry on or off, and two
// runs with the same seed produce the same span structure (stages and
// attributes; only durations vary).
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

// SpanExporter receives finished traces for out-of-process export (see
// internal/obs/export). Implementations must never block: Finish calls
// ExportTrace synchronously on the query path, so exporters enqueue into
// a bounded buffer and drop (metered) on overflow.
type SpanExporter interface {
	ExportTrace(TraceSnapshot)
}

// exporterBox wraps the interface so Tracer can hold it in an
// atomic.Pointer (interfaces are not directly atomically storable).
type exporterBox struct{ exp SpanExporter }

// Tracer records per-query traces into a bounded ring and aggregates
// metrics into a Registry. Nil disables everything.
type Tracer struct {
	reg  *Registry
	ring *traceRing
	qid  atomic.Uint64
	exp  atomic.Pointer[exporterBox]
}

// NewTracer returns a tracer with an empty registry and trace ring.
func NewTracer(opt Options) *Tracer {
	return &Tracer{reg: NewRegistry(),
		ring: &traceRing{buf: make([]TraceSnapshot, opt.ringSize())}}
}

// Registry returns the tracer's metrics registry (nil for a nil tracer).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// SetExporter attaches (or, with nil, detaches) a span exporter; every
// subsequently finished trace is offered to it after the ring push.
func (t *Tracer) SetExporter(exp SpanExporter) {
	if t == nil {
		return
	}
	if exp == nil {
		t.exp.Store(nil)
		return
	}
	t.exp.Store(&exporterBox{exp: exp})
}

// StartQuery opens a trace for one query. The returned QueryTrace (nil for
// a nil tracer) collects top-level stage spans and is published to the
// ring by Finish.
func (t *Tracer) StartQuery(sql string) *QueryTrace {
	if t == nil {
		return nil
	}
	now := time.Now()
	qt := &QueryTrace{tr: t, id: t.qid.Add(1), sql: sql, start: now}
	qt.root = &Span{qt: qt, stage: "query", start: now}
	return qt
}

// Recent returns the ring's traces ordered newest first: Recent()[0] is
// the most recently finished query, Recent()[1] the one before it, and so
// on. The ordering is part of the API contract — /debug/queries, Last and
// the shell's -explain all rely on it — and is covered by tests.
func (t *Tracer) Recent() []TraceSnapshot {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// Last returns the most recently finished trace.
func (t *Tracer) Last() (TraceSnapshot, bool) {
	if t == nil {
		return TraceSnapshot{}, false
	}
	rs := t.ring.snapshot()
	if len(rs) == 0 {
		return TraceSnapshot{}, false
	}
	return rs[0], true
}

// QueryTrace is one query's span tree while it is being recorded.
type QueryTrace struct {
	tr    *Tracer
	id    uint64
	sql   string
	start time.Time

	mu        sync.Mutex
	root      *Span
	tc        TraceContext
	queueWait time.Duration
	done      bool
	snap      TraceSnapshot
}

// SetTraceContext binds the query's distributed-trace identity; the IDs
// land on the finished TraceSnapshot and flow to the event log, history
// and exporter. A no-op after Finish or for an invalid context.
func (q *QueryTrace) SetTraceContext(tc TraceContext) {
	if q == nil || !tc.Valid() {
		return
	}
	q.mu.Lock()
	if !q.done {
		q.tc = tc
	}
	q.mu.Unlock()
}

// ID returns the tracer-scoped query id (0 for a nil trace).
func (q *QueryTrace) ID() uint64 {
	if q == nil {
		return 0
	}
	return q.id
}

// Root returns the trace's root span; top-level stage spans are its
// children.
func (q *QueryTrace) Root() *Span {
	if q == nil {
		return nil
	}
	return q.root
}

// Metrics returns the owning tracer's registry (nil-safe).
func (q *QueryTrace) Metrics() *Registry {
	if q == nil {
		return nil
	}
	return q.tr.Registry()
}

// StartSpan opens a top-level stage span.
func (q *QueryTrace) StartSpan(stage string) *Span {
	if q == nil {
		return nil
	}
	return q.root.StartSpan(stage)
}

// SetQueueWait records the time the query spent waiting for an execution
// slot before StartQuery — the admission layer's queue delay, which is
// otherwise invisible to the span tree because the trace only opens once
// the query starts executing.
func (q *QueryTrace) SetQueueWait(d time.Duration) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.queueWait = d
	q.mu.Unlock()
}

// Snapshot returns the finished trace. It reports false before Finish.
func (q *QueryTrace) Snapshot() (TraceSnapshot, bool) {
	if q == nil {
		return TraceSnapshot{}, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.snap, q.done
}

// Finish closes the trace: total duration is recorded, the snapshot is
// pushed into the tracer's ring, and per-stage latency plus query outcome
// metrics are observed. Finishing twice is a no-op.
func (q *QueryTrace) Finish(err error) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if q.done {
		q.mu.Unlock()
		return
	}
	q.done = true
	q.root.dur = time.Since(q.start)
	outcome := Outcome(err)
	snap := TraceSnapshot{
		ID:          q.id,
		SQL:         q.sql,
		Start:       q.start,
		TotalMs:     float64(q.root.dur) / float64(time.Millisecond),
		QueueWaitMs: float64(q.queueWait) / float64(time.Millisecond),
		Outcome:     outcome,
	}
	if q.tc.Valid() {
		snap.TraceID = q.tc.TraceIDString()
		snap.SpanID = q.tc.SpanIDString()
		snap.ParentSpanID = q.tc.ParentString()
	}
	if err != nil {
		snap.Err = err.Error()
	}
	for _, c := range q.root.children {
		snap.Spans = append(snap.Spans, c.snapshotLocked())
	}
	q.snap = snap
	q.mu.Unlock()

	q.tr.ring.push(snap)
	if box := q.tr.exp.Load(); box != nil {
		box.exp.ExportTrace(snap)
	}
	reg := q.tr.Registry()
	reg.Counter("aqp_queries_total",
		"Queries answered, by outcome.", "outcome", outcome).Inc()
	reg.Histogram("aqp_query_duration_seconds",
		"End-to-end local query latency.", LatencyBuckets).
		Observe(q.root.dur.Seconds())
	h := func(stage string) *Histogram {
		return reg.Histogram("aqp_stage_duration_seconds",
			"Per-stage local latency (the Figs. 7–9 breakdown).",
			LatencyBuckets, "stage", stage)
	}
	for _, s := range snap.Spans {
		h(s.Stage).Observe(s.Ms / 1e3)
	}
}

// Span is one pipeline stage (or sub-stage) of a trace. Methods are
// nil-safe; spans must only be mutated by the goroutine driving the query
// pipeline (the executor's internal fan-out does not touch spans).
type Span struct {
	qt       *QueryTrace
	stage    string
	start    time.Time
	dur      time.Duration
	attrs    []Attr
	children []*Span
}

// Attr is one key/value attribute on a span. Values are JSON-encodable
// scalars (string, int64, float64, bool).
type Attr struct {
	Key   string
	Value any
}

// StartSpan opens a child span.
func (s *Span) StartSpan(stage string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{qt: s.qt, stage: stage, start: time.Now()}
	s.qt.mu.Lock()
	s.children = append(s.children, c)
	s.qt.mu.Unlock()
	return c
}

// End fixes the span's duration at time-since-start. Spans accumulated
// with AddDuration need no End; calling End after AddDuration keeps the
// accumulated total.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.qt.mu.Lock()
	if s.dur == 0 {
		s.dur = time.Since(s.start)
	}
	s.qt.mu.Unlock()
}

// AddDuration accumulates execution time into the span — for stages whose
// work is fragmented across the per-group/per-aggregate loop (the
// bootstrap kernel and the diagnostic run once per aggregate).
func (s *Span) AddDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.qt.mu.Lock()
	s.dur += d
	s.qt.mu.Unlock()
}

// Metrics returns the registry of the tracer owning this span (nil-safe).
func (s *Span) Metrics() *Registry {
	if s == nil {
		return nil
	}
	return s.qt.Metrics()
}

// SetAttr sets an attribute, replacing an existing value for the key.
// Non-finite floats are stored as strings so traces stay JSON-encodable.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	if f, ok := value.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
		value = formatFloat(f)
	}
	s.qt.mu.Lock()
	defer s.qt.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// AddInt accumulates n into an integer attribute. Zero increments do not
// create the attribute — counter attrs only appear on spans that did the
// corresponding work.
func (s *Span) AddInt(key string, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.qt.mu.Lock()
	defer s.qt.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			if v, ok := s.attrs[i].Value.(int64); ok {
				s.attrs[i].Value = v + n
			}
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: n})
}

// snapshotLocked renders the span subtree; the caller holds qt.mu.
func (s *Span) snapshotLocked() SpanSnapshot {
	dur := s.dur
	if dur == 0 {
		dur = time.Since(s.start)
	}
	out := SpanSnapshot{
		Stage:   s.stage,
		StartMs: float64(s.start.Sub(s.qt.start)) / float64(time.Millisecond),
		Ms:      float64(dur) / float64(time.Millisecond),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.snapshotLocked())
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
	b.WriteString(t.SQL)
	for _, s := range t.Spans {
		s.structure(&b, 1)
	}
	return b.String()
}

func (s SpanSnapshot) structure(b *strings.Builder, depth int) {
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Stage)
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('(')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=%v", k, s.Attrs[k])
		}
		b.WriteByte(')')
	}
	for _, c := range s.Children {
		c.structure(b, depth+1)
	}
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
		s.format(&b, 1)
	}
	return b.String()
}

func (s SpanSnapshot) format(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%s%-18s %9.3fms", strings.Repeat("  ", depth), s.Stage, s.Ms)
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, "  %s=%v", k, s.Attrs[k])
		}
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.format(b, depth+1)
	}
}

// traceRing is a bounded ring of finished traces.
type traceRing struct {
	mu   sync.Mutex
	buf  []TraceSnapshot
	next int
	n    int
}

func (r *traceRing) push(t TraceSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// snapshot returns the retained traces, newest first.
func (r *traceRing) snapshot() []TraceSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSnapshot, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
