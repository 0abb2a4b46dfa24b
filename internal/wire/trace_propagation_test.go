package wire_test

// Cross-transport trace propagation: the same W3C traceparent presented
// over HTTP (header) and over the MySQL wire protocol (leading
// /*traceparent=...*/ comment) must land the caller's trace ID in every
// observer — the span ring, the event log, and the durable history
// record — and be echoed back to the caller on both transports: in the
// traceparent response header over HTTP, in a trace_id column over wire.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/serve"
	"repro/internal/wire"
)

func TestTracePropagationAcrossTransports(t *testing.T) {
	const (
		httpTID = "0af7651916cd43dd8448eb211c80319c"
		httpTP  = "00-" + httpTID + "-b7ad6b7169203331-01"
		wireTID = "4bf92f3577b34da6a3ce929d0e0e4736"
		wireTP  = "00-" + wireTID + "-00f067aa0ba902b7-01"
	)

	tracer := obs.NewTracer(obs.Config{})
	var elogBuf bytes.Buffer
	elog := obs.NewEventLog(&elogBuf, obs.Config{})
	dir := t.TempDir()
	hist, err := history.Open(dir, history.Options{SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close() //nolint:errcheck

	eng := testEngine(t, core.Config{Obs: tracer, EventLog: elog, History: hist})
	st := startStack(t, eng, serve.Config{Metrics: tracer.Registry()}, wire.Config{})

	const sql = "SELECT AVG(Price) FROM Orders"

	// HTTP: traceparent request header in, trace ID echoed in the response
	// header, and only there.
	body, _ := json.Marshal(serve.QueryRequest{SQL: sql})
	req, err := http.NewRequest("POST", st.hs.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", httpTP)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP status %d", resp.StatusCode)
	}
	echo, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || echo.TraceIDString() != httpTID {
		t.Errorf("response traceparent %q does not carry trace ID %s",
			resp.Header.Get("traceparent"), httpTID)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(httpTID)) {
		t.Errorf("answer body repeats the trace ID: %s", raw)
	}

	// Wire: traceparent comment prefix in, trace ID echoed as the
	// trailing trace_id resultset column.
	cli, err := wire.Dial(st.addr, wire.ClientOptions{User: "root", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	rs, err := cli.Query("/*traceparent=" + wireTP + "*/ " + sql)
	if err != nil {
		t.Fatal(err)
	}
	tidCol := -1
	for i, c := range rs.Columns {
		if c == "trace_id" {
			tidCol = i
		}
	}
	if tidCol < 0 {
		t.Fatalf("resultset has no trace_id column: %v", rs.Columns)
	}
	if len(rs.Rows) == 0 || rs.Rows[0][tidCol] != wireTID {
		t.Fatalf("wire trace_id cell = %v, want %s", rs.Rows, wireTID)
	}

	// Span ring: both queries appear with the caller-supplied trace IDs.
	ringIDs := map[string]bool{}
	for _, snap := range tracer.Recent() {
		ringIDs[snap.TraceID] = true
	}
	for _, want := range []string{httpTID, wireTID} {
		if !ringIDs[want] {
			t.Errorf("span ring is missing trace %s (have %v)", want, ringIDs)
		}
	}

	// Event log: one JSON record per query, each carrying its trace_id.
	elogText := elogBuf.String()
	for _, want := range []string{httpTID, wireTID} {
		if !strings.Contains(elogText, `"trace_id":"`+want+`"`) {
			t.Errorf("event log is missing trace_id %s:\n%s", want, elogText)
		}
	}

	// History: the durable query records join back by the same trace IDs.
	if err := hist.Sync(); err != nil {
		t.Fatal(err)
	}
	histIDs := map[string]bool{}
	if _, err := history.ReplayDir(dir, func(r *history.Record) {
		if r.Query != nil {
			histIDs[r.Query.TraceID] = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{httpTID, wireTID} {
		if !histIDs[want] {
			t.Errorf("history is missing trace %s (have %v)", want, histIDs)
		}
	}
}

// TestTracePropagationMintsRoot: with no caller trace context, both
// transports mint a root trace and still echo it back.
func TestTracePropagationMintsRoot(t *testing.T) {
	tracer := obs.NewTracer(obs.Config{})
	eng := testEngine(t, core.Config{Obs: tracer})
	st := startStack(t, eng, serve.Config{Metrics: tracer.Registry()}, wire.Config{})

	_, resp := httpQuery(t, st.hs.URL, "SELECT AVG(Price) FROM Orders")
	minted, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("header %q is not a valid traceparent", resp.Header.Get("traceparent"))
	}
	httpTID := minted.TraceIDString()
	if last, _ := tracer.Last(); last.TraceID != httpTID {
		t.Errorf("header carries trace %s, span ring's last trace is %s", httpTID, last.TraceID)
	}

	cli, err := wire.Dial(st.addr, wire.ClientOptions{User: "root", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	rs, err := cli.Query("SELECT AVG(Price) FROM Orders")
	if err != nil {
		t.Fatal(err)
	}
	last := len(rs.Columns) - 1
	if last < 0 || rs.Columns[last] != "trace_id" {
		t.Fatalf("wire resultset missing trace_id column: %v", rs.Columns)
	}
	wireTID := rs.Rows[0][last]
	if len(wireTID) != 32 || wireTID == httpTID {
		t.Errorf("wire minted trace_id = %q (http %q), want a fresh 32-hex id",
			wireTID, httpTID)
	}
}
