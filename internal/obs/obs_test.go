package obs

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/work"
)

// TestNilSafety exercises every exported method through nil receivers: a
// disabled tracer and its nil registry are no-ops.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Registry() != nil {
		t.Fatal("nil tracer should return nil registry")
	}
	tr.Registry().Counter("c", "h").Add(3)
	tr.Registry().Histogram("hh", "h", LatencyBuckets).Observe(1)
	tr.SetExporter(nil)
	tr.Finish(&QueryRecord{SQL: "SELECT 1", Stages: []StageRecord{{Stage: StageScan}}})
	if _, ok := tr.Last(); ok {
		t.Fatal("nil tracer should have no traces")
	}
	if tr.Recent() != nil {
		t.Fatal("nil tracer Recent should be nil")
	}
	var reg *Registry
	reg.Counter("x", "h").Inc()
	reg.WritePrometheus(&strings.Builder{})
}

func TestCounterAndHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("aqp_test_total", "help", "kind", "a")
	c.Add(3)
	c.Inc()
	if got := reg.Counter("aqp_test_total", "help", "kind", "a").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4 (same series must be shared)", got)
	}
	if got := reg.Counter("aqp_test_total", "help", "kind", "b").Value(); got != 0 {
		t.Fatalf("distinct label series not isolated: %d", got)
	}

	h := reg.Histogram("aqp_test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5 (NaN dropped)", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 55.65", h.Sum())
	}
	// Bucket boundaries are inclusive (Prometheus `le` semantics).
	if got := h.counts[0].Load(); got != 2 {
		t.Fatalf("le=0.1 bucket = %d, want 2 (0.05 and 0.1)", got)
	}
	if got := h.counts[3].Load(); got != 1 {
		t.Fatalf("+Inf overflow bucket = %d, want 1", got)
	}
}

func TestTypeClashDegradesToNoop(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "h").Inc()
	if h := reg.Histogram("m", "h", LatencyBuckets); h != nil {
		t.Fatal("type clash should return a nil no-op histogram")
	}
	if c := reg.Counter("m", "h"); c.Value() != 1 {
		t.Fatal("original counter must survive a type clash")
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?Inf|[-+0-9.eE]+)$`)

// checkPromText asserts every line of a /metrics payload is a comment or a
// well-formed sample line, and that histograms expose _bucket/_sum/_count.
func checkPromText(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty exposition")
	}
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# HELP ") || strings.HasPrefix(ln, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(ln) {
			t.Fatalf("malformed exposition line: %q", ln)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("aqp_queries_total", "Queries.", "outcome", "ok").Add(7)
	reg.Counter("aqp_queries_total", "Queries.", "outcome", "error").Add(2)
	h := reg.Histogram("aqp_stage_duration_seconds", "Stage latency.",
		[]float64{0.001, 0.01}, "stage", "scan")
	h.Observe(0.0005)
	h.Observe(0.5)

	var b strings.Builder
	reg.WritePrometheus(&b)
	text := b.String()
	checkPromText(t, text)
	for _, want := range []string{
		`aqp_queries_total{outcome="ok"} 7`,
		`aqp_queries_total{outcome="error"} 2`,
		`aqp_stage_duration_seconds_bucket{stage="scan",le="0.001"} 1`,
		`aqp_stage_duration_seconds_bucket{stage="scan",le="+Inf"} 2`,
		`aqp_stage_duration_seconds_count{stage="scan"} 2`,
		"# TYPE aqp_stage_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "h", "q", "a\"b\\c\nd").Inc()
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `q="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped: %s", b.String())
	}
}

func TestConcurrentMetrics(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("c_total", "h").Inc()
				reg.Histogram("h_seconds", "h", LatencyBuckets).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c_total", "h").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := reg.Histogram("h_seconds", "h", LatencyBuckets).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestTraceRingBound(t *testing.T) {
	tr := NewTracer(Config{RingSize: 3})
	for i := 0; i < 5; i++ {
		tr.Finish(&QueryRecord{QID: uint64(i + 1), SQL: fmt.Sprintf("q%d", i), Outcome: "ok",
			Stages: []StageRecord{{Stage: StageScan}}})
	}
	recent := tr.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(recent))
	}
	for i, want := range []string{"q4", "q3", "q2"} {
		if recent[i].SQL != want {
			t.Fatalf("recent[%d].SQL = %q, want %q (newest first)", i, recent[i].SQL, want)
		}
	}
	last, ok := tr.Last()
	if !ok || last.ID != 5 {
		t.Fatalf("Last = %+v ok=%v, want trace id 5", last, ok)
	}
}

// TestSpanAttrsAndStructure: a record renders as stage spans whose
// attributes are its typed fields — zero counts left out, non-finite floats
// as strings — with a fallback's plan and scan as its children and the
// verdicts, with their per-rung evidence, under the last diagnostic stage.
func TestSpanAttrsAndStructure(t *testing.T) {
	rec := &QueryRecord{SQL: "SELECT AVG(x) FROM t", Outcome: "ok",
		Stages: []StageRecord{
			{Stage: StageParse, Table: "t", Aggregates: 1},
			{Stage: StagePlan, SampleRows: 6400, Diagnostics: true},
			{Stage: StageScan, StartMs: 1, Ms: 2, Work: work.Counters{RowsScanned: 150, Scans: 1}},
			{Stage: StageDiagnostic, StartMs: 3, Work: work.Counters{DiagSubqueries: 400}, Rejects: []string{"delta"}},
			{Stage: StageEstimate, ClosedForm: 1, MaxRelErr: math.NaN()},
			{Stage: StageFallback, Reason: "diagnostic rejected"},
			{Stage: StagePlan, Nested: true},
			{Stage: StageScan, Nested: true, Work: work.Counters{RowsScanned: 1000}},
		},
		Aggs: []AggRecord{{Name: "avg", Rejected: true, Cause: "delta", Reason: "Δ grew",
			RungsRun: 2, DecidedAfter: 100, SubsampleQueries: 400,
			Rungs: []Rung{{Size: 20, Delta: 0.5, Sigma: 0.1, Pi: 1}, {Size: 40, Delta: math.Inf(1), Sigma: 0.1, Pi: 1}}}},
	}
	snap := rec.Trace()
	if len(snap.Spans) != 6 {
		t.Fatalf("%d top-level spans, want 6: %s", len(snap.Spans), snap.Structure())
	}
	scan := snap.Spans[2]
	if scan.Attrs["rows_scanned"] != int64(150) {
		t.Fatalf("rows_scanned = %v, want 150", scan.Attrs["rows_scanned"])
	}
	if _, ok := scan.Attrs["blocks_decoded"]; ok {
		t.Fatal("a zero counter must not become an attribute")
	}
	if got := snap.Spans[4].Attrs["max_rel_err"]; got != "NaN" {
		t.Fatalf("NaN attr = %v (%T), want JSON-safe string", got, got)
	}
	fb := snap.Spans[5]
	if len(fb.Children) != 2 || fb.Children[0].Stage != StagePlan || fb.Children[1].Stage != StageScan {
		t.Fatalf("fallback children = %+v", fb.Children)
	}
	diag := snap.Spans[3]
	if len(diag.Children) != 1 || diag.Attrs["rejected"] != int64(1) {
		t.Fatalf("diagnostic span = %+v", diag)
	}
	if v := diag.Children[0].Attrs; v["delta_b40"] != "+Inf" || v["pi_b20"] != float64(1) || v["cause"] != "delta" {
		t.Fatalf("verdict attrs = %v", v)
	}
	// Structure is timing-independent: a re-timed record renders the same.
	retimed := *rec
	retimed.Stages = append([]StageRecord(nil), rec.Stages...)
	retimed.Stages[2].Ms = 99
	if a, b := snap.Structure(), retimed.Trace().Structure(); a != b {
		t.Fatalf("structures differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(snap.Structure(), "scan(rows_scanned=150,scans=1)") {
		t.Fatalf("structure missing attrs: %s", snap.Structure())
	}
}

// TestFinishRecordsMetricsAndOutcome: Finish observes the record once —
// outcome, stage latency, work, fallbacks and the verdicts of every
// diagnostic stage the record holds — and keeps it in the ring with its
// failure text.
func TestFinishRecordsMetricsAndOutcome(t *testing.T) {
	tr := NewTracer(Config{})
	tr.Finish(&QueryRecord{QID: 1, SQL: "boom", Outcome: "error", Err: "parse failed",
		Stages: []StageRecord{{Stage: StageParse}}})
	tr.Finish(&QueryRecord{QID: 2, SQL: "SELECT MAX(x) FROM t", Outcome: "ok",
		Stages: []StageRecord{
			{Stage: StageDiagnostic, Resamples: 60, Accepted: 2},
			{Stage: StageScan, Work: work.Counters{RowsScanned: 100}},
			{Stage: StageDiagnostic, Resamples: 40, Accepted: 1, Rejects: []string{"pi"}},
			{Stage: StageBootstrap, Ms: 1, Work: work.Counters{WeightDraws: 1000}},
			{Stage: StageFallback, Reason: "diagnostic rejected"},
			{Stage: StageScan, Nested: true, Work: work.Counters{RowsScanned: 1000}},
		},
		Aggs: []AggRecord{{Rejected: true, Cause: "pi"}, {RungsRun: 3}, {}}})

	reg := tr.Registry()
	for _, c := range []struct {
		name   string
		labels []string
		want   int64
	}{
		{"aqp_queries_total", []string{"outcome", "error"}, 1},
		{"aqp_queries_total", []string{"outcome", "ok"}, 1},
		{"aqp_exec_rows_scanned_total", nil, 1100},
		{"aqp_bootstrap_resamples_total", nil, 100},
		{"aqp_fallbacks_total", []string{"reason", "diagnostic rejected"}, 1},
		{"aqp_diagnostic_verdicts_total", []string{"verdict", "accept"}, 3},
		{"aqp_diagnostic_verdicts_total", []string{"verdict", "reject"}, 1},
		{"aqp_diagnostic_rejects_total", []string{"cause", "pi"}, 1},
	} {
		if got := reg.Counter(c.name, "", c.labels...).Value(); got != c.want {
			t.Errorf("%s%v = %d, want %d", c.name, c.labels, got, c.want)
		}
	}
	stage := func(s string) int64 {
		return reg.Histogram("aqp_stage_duration_seconds", "", LatencyBuckets, "stage", s).Count()
	}
	if stage(StageParse) != 1 || stage(StageScan) != 1 {
		t.Errorf("stage histogram counts parse %d, scan %d; want 1 each (a nested scan is not a stage)",
			stage(StageParse), stage(StageScan))
	}
	if got := reg.Histogram("aqp_kernel_rows_per_second", "", ThroughputBuckets).Count(); got != 1 {
		t.Errorf("kernel throughput observed %d times, want once per bootstrap stage", got)
	}
	last := tr.Recent()[1]
	if last.Err != "parse failed" || last.ID != 1 {
		t.Fatalf("failed trace = %+v", last)
	}
}

func TestFormatTrace(t *testing.T) {
	tr := NewTracer(Config{})
	tr.Finish(&QueryRecord{SQL: "SELECT 1", Outcome: "ok",
		Stages: []StageRecord{{Stage: StageScan, Work: work.Counters{RowsScanned: 10}}}})
	last, _ := tr.Last()
	out := FormatTrace(last)
	if !strings.Contains(out, "scan") || !strings.Contains(out, "rows_scanned=10") {
		t.Fatalf("FormatTrace output missing content:\n%s", out)
	}
}
