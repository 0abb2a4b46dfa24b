package obs

import (
	"context"
	"io"
	"log/slog"
	"sync"
)

// EventLog emits one structured JSON record per query — the flight
// recorder next to the trace ring's flight deck: greppable, shippable to
// a log pipeline, and carrying enough to answer "which queries were slow
// or miscalibrated, and why" without scraping /debug/queries. Records are
// written through log/slog, so the output is standard JSON lines.
//
// A nil *EventLog is a no-op, mirroring the rest of the obs package:
// instrumented paths pay one pointer comparison when logging is off. The
// log only reads finished answers and trace snapshots — it consumes no
// engine randomness and cannot perturb results.
type EventLog struct {
	log *slog.Logger
	opt Config
}

// lockedWriter serializes Write calls: slog handlers issue one Write per
// record, but concurrent queries share the destination.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// NewEventLog returns an event log writing JSON lines to w.
func NewEventLog(w io.Writer, opt Config) *EventLog {
	h := slog.NewJSONHandler(&lockedWriter{w: w}, nil)
	return &EventLog{log: slog.New(h), opt: opt}
}

// AggEvent is one aggregate's outcome inside a query event.
type AggEvent struct {
	Group     string  `json:"group,omitempty"`
	Name      string  `json:"name"`
	Estimate  float64 `json:"estimate"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	RelErr    float64 `json:"rel_err"`
	Technique string  `json:"technique"`
	// Verdict is the runtime diagnostic's decision: "accept" or "reject".
	Verdict string `json:"verdict"`
	// Exact marks an answer computed on the full dataset (fallback or
	// exact execution).
	Exact bool `json:"exact,omitempty"`
}

// QueryEvent is the one-record-per-query payload handed to Emit. Trace
// supplies identity, outcome, queue wait and per-stage latencies; the
// rest comes from the answer.
type QueryEvent struct {
	Trace      TraceSnapshot
	Kind       string // "query" (default) or "audit"
	SampleRows int
	BootstrapK int
	FellBack   bool
	// BlocksSkipped counts zone-map blocks the scan pruned for this query.
	BlocksSkipped int64
	// BlocksDecoded counts compressed blocks the scan actually decoded
	// (zero on raw backings; skipped blocks are never decoded).
	BlocksDecoded int64
	// DecodeNs is the wall time spent decoding compressed blocks.
	DecodeNs int64
	// SharedScan marks a query answered from a shared-scan batch rather
	// than its own physical pass.
	SharedScan bool
	// Cached marks an answer replayed from the answer cache — no scan,
	// decode, or resampling happened for this record.
	Cached bool
	// CacheHits counts decoded blocks served from the block cache.
	CacheHits int64
	// CacheBytes is the decoded bytes those hits avoided re-decoding.
	CacheBytes int64
	Aggs       []AggEvent
}

// Emit writes one record. Slow queries (total latency past the threshold),
// miscalibrated queries (a rejected verdict, or relative error past
// MaxRelErr) and failed queries log at Warn; everything else at Info.
func (l *EventLog) Emit(ev QueryEvent) {
	if l == nil {
		return
	}
	t := ev.Trace
	slow := t.TotalMs >= l.opt.slowMs()
	miscal := false
	for _, a := range ev.Aggs {
		if a.Verdict == "reject" {
			miscal = true
		}
		if l.opt.MaxRelErr > 0 && a.RelErr > l.opt.MaxRelErr {
			miscal = true
		}
	}
	kind := ev.Kind
	if kind == "" {
		kind = "query"
	}
	attrs := []slog.Attr{
		slog.String("kind", kind),
		slog.Uint64("qid", t.ID),
		slog.String("sql", t.SQL),
		slog.String("outcome", t.Outcome),
		slog.Float64("total_ms", t.TotalMs),
	}
	if t.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", t.TraceID))
	}
	if t.QueueWaitMs > 0 {
		attrs = append(attrs, slog.Float64("queue_wait_ms", t.QueueWaitMs))
	}
	if ev.SampleRows > 0 {
		attrs = append(attrs, slog.Int("sample_rows", ev.SampleRows))
	}
	if ev.BootstrapK > 0 {
		attrs = append(attrs, slog.Int("bootstrap_k", ev.BootstrapK))
	}
	if ev.FellBack {
		attrs = append(attrs, slog.Bool("fell_back", true))
	}
	if ev.BlocksSkipped > 0 {
		attrs = append(attrs, slog.Int64("blocks_skipped", ev.BlocksSkipped))
	}
	if ev.BlocksDecoded > 0 {
		attrs = append(attrs, slog.Int64("blocks_decoded", ev.BlocksDecoded))
	}
	if ev.DecodeNs > 0 {
		attrs = append(attrs, slog.Int64("decode_ns", ev.DecodeNs))
	}
	if ev.SharedScan {
		attrs = append(attrs, slog.Bool("shared_scan", true))
	}
	if ev.Cached {
		attrs = append(attrs, slog.Bool("cached", true))
	}
	if ev.CacheHits > 0 {
		attrs = append(attrs, slog.Int64("cache_hits", ev.CacheHits))
	}
	if ev.CacheBytes > 0 {
		attrs = append(attrs, slog.Int64("cache_bytes", ev.CacheBytes))
	}
	if slow {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	if miscal {
		attrs = append(attrs, slog.Bool("miscalibrated", true))
	}
	if t.Err != "" {
		attrs = append(attrs, slog.String("error", t.Err))
	}
	if stages := StageLatencies(t.Spans); len(stages) > 0 {
		attrs = append(attrs, slog.Any("stages_ms", stages))
	}
	if len(ev.Aggs) > 0 {
		attrs = append(attrs, slog.Any("aggs", ev.Aggs))
	}
	level := slog.LevelInfo
	if slow || miscal || t.Outcome == "error" {
		level = slog.LevelWarn
	}
	l.log.LogAttrs(context.Background(), level, "query", attrs...)
}

// ConnEvent is one connection-lifecycle record from a network front end:
// a MySQL-wire connection opening or closing, an auth failure, a protocol
// violation, or a connection-limit rejection. It lands in the same JSON
// event stream as query records, distinguished by kind=conn.
type ConnEvent struct {
	// Transport is the listener that produced the event: "mysql" | "http".
	Transport string
	// ConnID is the listener-scoped connection id (the id the MySQL
	// handshake advertised); zero for transports without one.
	ConnID uint64
	// Remote is the peer address.
	Remote string
	// User is the authenticated user, when known.
	User string
	// Event is the lifecycle step: "open" | "close" | "auth_error" |
	// "protocol_error" | "too_many_connections".
	Event string
	// Queries counts commands served over the connection (close events).
	Queries int64
	// DurMs is the connection's lifetime (close events).
	DurMs float64
	// Err carries the error that ended or rejected the connection.
	Err string
}

// EmitConn writes one connection-lifecycle record. Errors (auth failures,
// protocol violations, limit rejections, or any event carrying Err) log
// at Warn, clean opens and closes at Info.
func (l *EventLog) EmitConn(ev ConnEvent) {
	if l == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("kind", "conn"),
		slog.String("transport", ev.Transport),
		slog.String("event", ev.Event),
	}
	if ev.ConnID != 0 {
		attrs = append(attrs, slog.Uint64("conn_id", ev.ConnID))
	}
	if ev.Remote != "" {
		attrs = append(attrs, slog.String("remote", ev.Remote))
	}
	if ev.User != "" {
		attrs = append(attrs, slog.String("user", ev.User))
	}
	if ev.Queries > 0 {
		attrs = append(attrs, slog.Int64("queries", ev.Queries))
	}
	if ev.DurMs > 0 {
		attrs = append(attrs, slog.Float64("dur_ms", ev.DurMs))
	}
	if ev.Err != "" {
		attrs = append(attrs, slog.String("error", ev.Err))
	}
	level := slog.LevelInfo
	if ev.Err != "" || ev.Event == "auth_error" ||
		ev.Event == "protocol_error" || ev.Event == "too_many_connections" {
		level = slog.LevelWarn
	}
	l.log.LogAttrs(context.Background(), level, "conn", attrs...)
}

// StageLatencies flattens the top-level stage spans to a name→ms map;
// repeated stages (e.g. two diagnostics in a GROUP BY fan-out) accumulate.
// The event log and the history store share this breakdown.
func StageLatencies(spans []SpanSnapshot) map[string]float64 {
	if len(spans) == 0 {
		return nil
	}
	out := make(map[string]float64, len(spans))
	for _, s := range spans {
		out[s.Stage] += s.Ms
	}
	return out
}
