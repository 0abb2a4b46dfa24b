package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// TestWriteChromeTrace pins the trace-event encoding against a hand-built
// snapshot: one metadata event, one whole-query X event, one X event per
// span (children flattened onto the same track), with ts/dur scaled from
// milliseconds to the format's microseconds.
func TestWriteChromeTrace(t *testing.T) {
	snap := TraceSnapshot{
		ID: 42, SQL: "SELECT AVG(x) FROM t", Outcome: "ok",
		TotalMs: 10, QueueWaitMs: 2,
		Spans: []SpanSnapshot{{
			Stage: "scan", StartMs: 1, Ms: 4,
			Attrs:    map[string]any{"rows_scanned": int64(100)},
			Children: []SpanSnapshot{{Stage: "part", StartMs: 2, Ms: 1}},
		}, {
			Stage: "estimate", StartMs: 6, Ms: 3,
		}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, snap); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Ts    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid trace-event JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// metadata + query + scan + part + estimate.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(doc.TraceEvents), doc.TraceEvents)
	}
	meta := doc.TraceEvents[0]
	if meta.Phase != "M" || meta.Args["name"] != snap.SQL {
		t.Fatalf("metadata event wrong: %+v", meta)
	}
	query := doc.TraceEvents[1]
	if query.Phase != "X" || query.Ts != 0 || query.Dur != 10000 {
		t.Fatalf("query event not scaled to microseconds: %+v", query)
	}
	if query.Args["queue_wait_ms"] != float64(2) || query.Args["outcome"] != "ok" {
		t.Fatalf("query args wrong: %+v", query.Args)
	}
	byName := map[string][2]float64{}
	for _, ev := range doc.TraceEvents[2:] {
		if ev.Phase != "X" {
			t.Fatalf("span event phase = %q, want X", ev.Phase)
		}
		byName[ev.Name] = [2]float64{ev.Ts, ev.Dur}
	}
	for name, want := range map[string][2]float64{
		"scan": {1000, 4000}, "part": {2000, 1000}, "estimate": {6000, 3000},
	} {
		if byName[name] != want {
			t.Fatalf("%s ts/dur = %v, want %v", name, byName[name], want)
		}
	}
}

// TestChromeTraceEndpoint exercises /debug/queries/{id}/trace over HTTP:
// a live trace renders, an unknown id is 404, a non-numeric id is 400.
func TestChromeTraceEndpoint(t *testing.T) {
	tr := NewTracer(Config{})
	tr.Finish(&QueryRecord{QID: 1, SQL: "SELECT COUNT(*) FROM t", Outcome: "ok",
		Stages: []StageRecord{{Stage: StageScan}}})
	last, _ := tr.Last()

	srv, err := Serve("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	status, body := get("/debug/queries/1/trace")
	if status != http.StatusOK {
		t.Fatalf("live trace: status %d, body %s", status, body)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("endpoint body is not JSON: %v", err)
	}
	events := doc["traceEvents"].([]any)
	if len(events) < 3 {
		t.Fatalf("trace has %d events, want metadata+query+scan", len(events))
	}
	if args := events[1].(map[string]any)["args"].(map[string]any); args["qid"] != float64(last.ID) {
		t.Fatalf("trace qid = %v, want %d", args["qid"], last.ID)
	}

	if status, _ := get("/debug/queries/99999/trace"); status != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", status)
	}
	if status, _ := get("/debug/queries/nope/trace"); status != http.StatusBadRequest {
		t.Fatalf("bad id: status %d, want 400", status)
	}
}
