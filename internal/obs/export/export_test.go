package export

import (
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/work"
)

// testRecord is a finished query whose diagnostic rejected its one
// aggregate on the Δ condition after two rungs. Empty ids leave the record
// without a trace identity.
func testRecord(traceID, spanID string) *obs.QueryRecord {
	var tc obs.TraceContext
	hex.Decode(tc.TraceID[:], []byte(traceID)) //nolint:errcheck // empty or valid
	hex.Decode(tc.SpanID[:], []byte(spanID))   //nolint:errcheck
	return &obs.QueryRecord{
		QID:          7,
		SQL:          "SELECT AVG(X) FROM T",
		TraceContext: tc,
		Start:        time.Unix(1700000000, 0),
		TotalMs:      12.5,
		Outcome:      "ok",
		Stages: []obs.StageRecord{
			{Stage: obs.StageParse, StartMs: 0.1, Ms: 0.4, Table: "T", Aggregates: 1},
			{Stage: obs.StageScan, StartMs: 0.5, Ms: 10, Work: work.Counters{RowsScanned: 1000}},
			{Stage: obs.StageDiagnostic, StartMs: 10.5, Ms: 1.5, Work: work.Counters{DiagSubqueries: 400}},
		},
		Aggs: []obs.AggRecord{{Name: "avg(x)", Rejected: true, Cause: "delta",
			Reason: "average deviation not improving", RungsRun: 2, DecidedAfter: 100,
			SubsampleQueries: 400, Rungs: []obs.Rung{
				{Size: 20, TrueHalfWidth: 2, Delta: 0.1, Sigma: 0.2, Pi: 0.97},
				{Size: 40, TrueHalfWidth: 1, Delta: 0.3, Sigma: 0.1, Pi: 0.99}}}},
	}
}

// TestExporterPostsOTLP pins the wire shape: one ExportTraceServiceRequest
// with the service resource, a SERVER root span carrying the record's
// trace identity, and INTERNAL children parented under it — the verdict
// under the diagnostic, carrying its evidence as aqp.* attributes.
func TestExporterPostsOTLP(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf [1 << 16]byte
		n, _ := r.Body.Read(buf[:])
		mu.Lock()
		bodies = append(bodies, append([]byte(nil), buf[:n]...))
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	exp, err := New(Config{URL: srv.URL, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	const traceID = "0af7651916cd43dd8448eb211c80319c"
	const spanID = "b7ad6b7169203331"
	exp.ExportTrace(testRecord(traceID, spanID))
	exp.Flush()

	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 1 {
		t.Fatalf("collector received %d batches, want 1", len(bodies))
	}
	var req struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					Kind         int    `json:"kind"`
					Start        string `json:"startTimeUnixNano"`
					End          string `json:"endTimeUnixNano"`
					Attributes   []struct {
						Key   string         `json:"key"`
						Value map[string]any `json:"value"`
					} `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(bodies[0], &req); err != nil {
		t.Fatalf("collector body is not JSON: %v", err)
	}
	if len(req.ResourceSpans) != 1 || len(req.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("unexpected envelope shape: %s", bodies[0])
	}
	res := req.ResourceSpans[0]
	foundService := false
	for _, kv := range res.Resource.Attributes {
		if kv.Key == "service.name" && kv.Value.StringValue == "aqp" {
			foundService = true
		}
	}
	if !foundService {
		t.Error("resource is missing service.name=aqp")
	}
	spans := res.ScopeSpans[0].Spans
	if len(spans) != 5 { // root + parse + scan + diagnostic + verdict
		t.Fatalf("exported %d spans, want 5", len(spans))
	}
	root := spans[0]
	if root.Name != "query" || root.Kind != 2 {
		t.Errorf("root span = %q kind %d, want \"query\" kind 2 (SERVER)", root.Name, root.Kind)
	}
	if root.TraceID != traceID || root.SpanID != spanID {
		t.Errorf("root identity %s/%s, want %s/%s", root.TraceID, root.SpanID, traceID, spanID)
	}
	byName := map[string]int{}
	for i, s := range spans {
		byName[s.Name] = i
		if s.TraceID != traceID {
			t.Errorf("span %s has trace ID %s", s.Name, s.TraceID)
		}
		if i > 0 && s.Kind != 1 {
			t.Errorf("child span %s kind %d, want 1 (INTERNAL)", s.Name, s.Kind)
		}
		if s.Start == "" || s.End == "" {
			t.Errorf("span %s missing timestamps", s.Name)
		}
	}
	if spans[byName["scan"]].ParentSpanID != spanID {
		t.Error("scan span not parented under the root")
	}
	verdict := spans[byName["verdict"]]
	if verdict.ParentSpanID != spans[byName["diagnostic"]].SpanID {
		t.Error("verdict span not parented under the diagnostic")
	}
	got := map[string]any{}
	for _, kv := range verdict.Attributes {
		for _, v := range kv.Value {
			got[kv.Key] = v
		}
	}
	for key, want := range map[string]any{
		"aqp.verdict": "reject", "aqp.cause": "delta", "aqp.reason": "average deviation not improving",
		"aqp.delta_b20": 0.1, "aqp.sigma_b20": 0.2, "aqp.pi_b20": 0.97,
		"aqp.delta_b40": 0.3, "aqp.sigma_b40": 0.1, "aqp.pi_b40": 0.99,
		"aqp.rungs_run": "2", "aqp.subsample_queries": "400",
	} {
		if got[key] != want {
			t.Errorf("verdict attribute %s = %v, want %v", key, got[key], want)
		}
	}
}

// TestExporterOverflowDropsNotBlocks pins the queue-overflow contract:
// with the worker wedged on a slow collector, excess ExportTrace calls
// return immediately and the overflow is metered, never blocking the
// caller (the query path).
func TestExporterOverflowDropsNotBlocks(t *testing.T) {
	release := make(chan struct{})
	var wedged sync.Once
	wedgedC := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wedged.Do(func() { close(wedgedC) })
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	exp, err := New(Config{
		URL:       srv.URL,
		Metrics:   reg,
		queueSize: 4,
		maxBatch:  1, // every trace is its own batch → worker wedges on the first
	})
	if err != nil {
		t.Fatal(err)
	}

	exp.ExportTrace(testRecord("", ""))
	<-wedgedC // worker is now stuck inside the POST

	// Fill the queue and then some; all calls must return promptly.
	var done atomic.Bool
	go func() {
		for i := 0; i < 50; i++ {
			exp.ExportTrace(testRecord("", ""))
		}
		done.Store(true)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !done.Load() {
		if time.Now().After(deadline) {
			t.Fatal("ExportTrace blocked with a wedged worker and a full queue")
		}
		time.Sleep(time.Millisecond)
	}

	dropped := reg.Counter("aqp_export_dropped_total",
		"Traces dropped by the exporter, by reason.", "reason", "queue_full").Value()
	if dropped < 46 { // 50 sends, 4 queue slots
		t.Errorf("dropped counter = %d, want >= 46", dropped)
	}
	close(release) // unwedge so Close's tail flush finishes fast
	exp.Close()
}

// TestExporterFilesink pins the air-gapped path: batches land as JSON
// lines in the configured file, one ExportTraceServiceRequest per line.
func TestExporterFilesink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	exp, err := New(Config{Path: path, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	exp.ExportTrace(testRecord("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"))
	exp.Flush()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var req map[string]any
	if err := json.Unmarshal(data, &req); err != nil {
		t.Fatalf("filesink line is not JSON: %v", err)
	}
	if _, ok := req["resourceSpans"]; !ok {
		t.Error("filesink line is missing resourceSpans")
	}
}

// TestExporterMintsIdentityForLegacySnapshots: records without a trace
// context still export, with a fresh identity.
func TestExporterMintsIdentityForLegacySnapshots(t *testing.T) {
	req := otlpRequest("aqp", []*obs.QueryRecord{testRecord("", "")})
	spans := req.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) == 0 {
		t.Fatal("no spans exported")
	}
	if spans[0].TraceID == "" || spans[0].SpanID == "" {
		t.Error("legacy snapshot exported without a minted identity")
	}
}

// TestChildSpanIDDeterministic: stage span IDs derive from the root span
// and tree path only, so re-exporting the same trace yields the same IDs.
func TestChildSpanIDDeterministic(t *testing.T) {
	a := childSpanID("b7ad6b7169203331", "0.2")
	b := childSpanID("b7ad6b7169203331", "0.2")
	c := childSpanID("b7ad6b7169203331", "0.3")
	if a != b {
		t.Errorf("same inputs gave %s and %s", a, b)
	}
	if a == c {
		t.Error("different paths collided")
	}
	if len(a) != 16 {
		t.Errorf("span ID %q is not 16 hex chars", a)
	}
}
