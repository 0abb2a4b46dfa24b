package export

import (
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
)

func testSnapshot(traceID, spanID string) obs.TraceSnapshot {
	return obs.TraceSnapshot{
		ID:      7,
		SQL:     "SELECT AVG(X) FROM T",
		TraceID: traceID,
		SpanID:  spanID,
		Start:   time.Unix(1700000000, 0),
		TotalMs: 12.5,
		Outcome: "ok",
		Spans: []obs.SpanSnapshot{
			{Stage: "analyze", StartMs: 0.1, Ms: 0.4},
			{Stage: "scan", StartMs: 0.5, Ms: 10,
				Attrs: map[string]any{"rows": 1000},
				Children: []obs.SpanSnapshot{
					{Stage: "estimate", StartMs: 2, Ms: 3},
				}},
		},
	}
}

// TestExporterPostsOTLP pins the wire shape: one ExportTraceServiceRequest
// with the service resource, a SERVER root span carrying the snapshot's
// trace identity, and INTERNAL children parented under it.
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
	exp.ExportTrace(testSnapshot(traceID, spanID))
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
	if len(spans) != 4 { // root + analyze + scan + estimate
		t.Fatalf("exported %d spans, want 4", len(spans))
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
	if spans[byName["estimate"]].ParentSpanID != spans[byName["scan"]].SpanID {
		t.Error("estimate span not parented under scan")
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

	exp.ExportTrace(testSnapshot("", ""))
	<-wedgedC // worker is now stuck inside the POST

	// Fill the queue and then some; all calls must return promptly.
	var done atomic.Bool
	go func() {
		for i := 0; i < 50; i++ {
			exp.ExportTrace(testSnapshot("", ""))
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
	exp.ExportTrace(testSnapshot("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"))
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

// TestExporterMintsIdentityForLegacySnapshots: traces recorded without a
// bound trace context still export, with a fresh identity.
func TestExporterMintsIdentityForLegacySnapshots(t *testing.T) {
	req := otlpRequest("aqp", []obs.TraceSnapshot{testSnapshot("", "")})
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
