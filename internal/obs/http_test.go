package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/work"
)

func TestServeMetricsAndDebugQueries(t *testing.T) {
	tr := NewTracer(Config{RingSize: 4})
	for i := 0; i < 6; i++ {
		tr.Finish(&QueryRecord{QID: uint64(i + 1), SQL: fmt.Sprintf("SELECT %d", i), Outcome: "ok",
			Stages: []StageRecord{{Stage: StageScan, Work: work.Counters{RowsScanned: int64(100 * (i + 1))}}}})
	}

	srv, err := Serve("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type = %q", ctype)
	}
	checkPromText(t, metrics)
	if !strings.Contains(metrics, `aqp_queries_total{outcome="ok"} 6`) {
		t.Fatalf("/metrics missing query counter:\n%s", metrics)
	}

	body, ctype := get("/debug/queries")
	if ctype != "application/json" {
		t.Fatalf("/debug/queries content type = %q", ctype)
	}
	var traces []TraceSnapshot
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/debug/queries is not valid JSON: %v\n%s", err, body)
	}
	if len(traces) != 4 {
		t.Fatalf("got %d traces, want ring size 4", len(traces))
	}
	if traces[0].SQL != "SELECT 5" {
		t.Fatalf("traces[0].SQL = %q, want newest first", traces[0].SQL)
	}
	if len(traces[0].Spans) != 1 || traces[0].Spans[0].Stage != StageScan {
		t.Fatalf("span tree lost in JSON: %+v", traces[0].Spans)
	}

	limited, _ := get("/debug/queries?n=2")
	if err := json.Unmarshal([]byte(limited), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("?n=2 returned %d traces", len(traces))
	}
}

func TestServeNilTracer(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("Serve(nil tracer) should error")
	}
}
