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
// log only reads finished QueryRecords — it consumes no engine randomness
// and cannot perturb results.
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

// eventAgg is an aggregate as the event log renders it: the interval as
// its endpoints, the diagnostic's decision as a verdict string.
type eventAgg struct {
	Group     string  `json:"group,omitempty"`
	Name      string  `json:"name"`
	Kind      string  `json:"kind,omitempty"`
	Estimate  float64 `json:"estimate"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	RelErr    float64 `json:"rel_err"`
	Technique string  `json:"technique"`
	// Verdict is the runtime diagnostic's decision: "accept" or "reject".
	Verdict      string `json:"verdict"`
	Cause        string `json:"cause,omitempty"`
	RungsRun     int    `json:"rungs_run,omitempty"`
	DecidedAfter int    `json:"decided_after,omitempty"`
	Exact        bool   `json:"exact,omitempty"`
}

// Emit writes one record. Slow queries (total latency past the threshold),
// miscalibrated queries (a rejected aggregate, or relative error past
// MaxRelErr) and failed queries log at Warn; everything else at Info.
func (l *EventLog) Emit(rec *QueryRecord) {
	if l == nil {
		return
	}
	slow := rec.TotalMs >= l.opt.slowMs()
	miscal := false
	var aggs []eventAgg
	for _, a := range rec.Aggs {
		if a.Rejected || l.opt.MaxRelErr > 0 && a.RelErr > l.opt.MaxRelErr {
			miscal = true
		}
		verdict := "accept"
		if a.Rejected {
			verdict = "reject"
		}
		aggs = append(aggs, eventAgg{Group: a.Group, Name: a.Name, Kind: a.Kind,
			Estimate: a.Estimate, Lo: a.Lo(), Hi: a.Hi(), RelErr: a.RelErr,
			Technique: a.Technique, Verdict: verdict, Cause: a.Cause,
			RungsRun: a.RungsRun, DecidedAfter: a.DecidedAfter, Exact: a.Exact})
	}
	kind := rec.Kind
	if kind == "" {
		kind = "query"
	}
	attrs := []slog.Attr{
		slog.String("kind", kind),
		slog.Uint64("qid", rec.QID),
		slog.String("sql", rec.SQL),
		slog.String("outcome", rec.Outcome),
		slog.Float64("total_ms", rec.TotalMs),
	}
	if rec.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", rec.TraceID))
	}
	if rec.Table != "" {
		attrs = append(attrs, slog.String("table", rec.Table))
	}
	if rec.Sample != "" {
		attrs = append(attrs, slog.String("sample", rec.Sample))
	}
	if rec.Predicate != "" {
		attrs = append(attrs, slog.String("predicate", rec.Predicate))
	}
	if rec.QueueWaitMs > 0 {
		attrs = append(attrs, slog.Float64("queue_wait_ms", rec.QueueWaitMs))
	}
	if rec.SampleRows > 0 {
		attrs = append(attrs, slog.Int("sample_rows", rec.SampleRows))
	}
	if rec.KBudget > 0 {
		attrs = append(attrs, slog.Int("bootstrap_k", rec.KBudget))
	}
	if rec.FellBack {
		attrs = append(attrs, slog.Bool("fell_back", true))
	}
	work := rec.Work()
	if work.BlocksSkipped > 0 {
		attrs = append(attrs, slog.Int64("blocks_skipped", work.BlocksSkipped))
	}
	if work.BlocksDecoded > 0 {
		attrs = append(attrs, slog.Int64("blocks_decoded", work.BlocksDecoded))
	}
	if work.DecodeNanos > 0 {
		attrs = append(attrs, slog.Int64("decode_ns", work.DecodeNanos))
	}
	if rec.Cached {
		attrs = append(attrs, slog.Bool("cached", true))
	}
	if work.CacheHits > 0 {
		attrs = append(attrs, slog.Int64("cache_hits", work.CacheHits))
	}
	if work.CacheBytes > 0 {
		attrs = append(attrs, slog.Int64("cache_bytes", work.CacheBytes))
	}
	if slow {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	if miscal {
		attrs = append(attrs, slog.Bool("miscalibrated", true))
	}
	if rec.Err != "" {
		attrs = append(attrs, slog.String("error", rec.Err))
	}
	if len(rec.StagesMs) > 0 {
		attrs = append(attrs, slog.Any("stages_ms", rec.StagesMs))
	}
	if len(aggs) > 0 {
		attrs = append(attrs, slog.Any("aggs", aggs))
	}
	level := slog.LevelInfo
	if slow || miscal || rec.Outcome == "error" {
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
