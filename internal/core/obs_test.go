package core

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

// obsTestQueries cover the pipeline variants: closed form, scaled sum with
// filter, bootstrap percentile, GROUP BY fan-out.
var obsTestQueries = []string{
	"SELECT AVG(Time) FROM Sessions",
	"SELECT SUM(Time) FROM Sessions WHERE City = 'NYC'",
	"SELECT PERCENTILE(Time, 0.9) FROM Sessions",
	"SELECT AVG(Time), COUNT(*) FROM Sessions GROUP BY City",
}

func tracedPair(t *testing.T, mutate func(*Config)) (traced, plain *Engine) {
	t.Helper()
	mk := func(tr *obs.Tracer) *Engine {
		cfg := Config{Seed: 11, Workers: 3, BootstrapK: 30, Obs: tr}
		if mutate != nil {
			mutate(&cfg)
		}
		e, _ := buildSessions(t, cfg, 30000)
		if err := e.BuildSamples("Sessions", 8000); err != nil {
			t.Fatal(err)
		}
		return e
	}
	return mk(obs.NewTracer(obs.Options{})), mk(nil)
}

// TestTracingDoesNotPerturbAnswers asserts the determinism guarantee:
// telemetry on or off, answers, error bars and verdicts are bit-identical.
func TestTracingDoesNotPerturbAnswers(t *testing.T) {
	traced, plain := tracedPair(t, nil)
	for _, q := range obsTestQueries {
		a, err := traced.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Groups) != len(b.Groups) {
			t.Fatalf("%s: group counts differ", q)
		}
		for gi := range a.Groups {
			for ai := range a.Groups[gi].Aggs {
				x, y := a.Groups[gi].Aggs[ai], b.Groups[gi].Aggs[ai]
				if x.Estimate != y.Estimate ||
					x.ErrorBar.HalfWidth != y.ErrorBar.HalfWidth ||
					x.DiagnosticOK != y.DiagnosticOK ||
					x.Technique != y.Technique {
					t.Fatalf("%s: traced %+v != untraced %+v", q, x, y)
				}
			}
		}
	}
}

// TestSpanStructureDeterminism asserts that two same-seed runs produce the
// same span structure (stages, nesting, attributes; durations excluded).
func TestSpanStructureDeterminism(t *testing.T) {
	run := func() []string {
		e, _ := tracedPair(t, nil)
		var out []string
		for _, q := range obsTestQueries {
			if _, err := e.Run(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			tr, ok := e.Tracer().Last()
			if !ok {
				t.Fatalf("%s: no trace recorded", q)
			}
			out = append(out, tr.Structure())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("structures differ for %q:\n%s\nvs\n%s", obsTestQueries[i], a[i], b[i])
		}
	}
}

// counterAttrSums walks a span tree accumulating the executor counter
// attributes.
func counterAttrSums(spans []obs.SpanSnapshot, into map[string]int64) {
	for _, s := range spans {
		for k, v := range s.Attrs {
			if n, ok := v.(int64); ok {
				into[k] += n
			}
		}
		counterAttrSums(s.Children, into)
	}
}

// spanSumsMatchCounters asserts that summing the per-span counter
// attributes over the whole trace reproduces the answer's Counters.
func spanSumsMatchCounters(t *testing.T, label string, tr obs.TraceSnapshot, c exec.Counters) {
	t.Helper()
	sums := map[string]int64{}
	counterAttrSums(tr.Spans, sums)
	for _, check := range []struct {
		key  string
		want int64
	}{
		{"subqueries", int64(c.Subqueries)},
		{"scans", int64(c.Scans)},
		{"rows_scanned", c.RowsScanned},
		{"bytes_scanned", c.BytesScanned},
		{"rows_after_filter", c.RowsAfterFilter},
		{"blocks_skipped", c.BlocksSkipped},
		{"blocks_decoded", c.BlocksDecoded},
		{"decode_ns", c.DecodeNanos},
		{"cache_hits", c.CacheHits},
		{"cache_bytes", c.CacheBytes},
		{"weight_draws", c.WeightDraws},
		{"diag_subqueries", int64(c.DiagSubqueries)},
		{"tasks", int64(c.Tasks)},
	} {
		if sums[check.key] != check.want {
			t.Errorf("%s: span attr %s sums to %d, counters say %d\ntrace:\n%s",
				label, check.key, sums[check.key], check.want, tr.Structure())
		}
	}
}

// TestSpanCountersMatchResultCounters asserts the invariant that summing
// the per-span counter attributes over the whole trace reproduces
// Result.Counters, for the consolidated pipeline and exact execution.
func TestSpanCountersMatchResultCounters(t *testing.T) {
	for _, mode := range []struct {
		name   string
		mutate func(*Config)
		exact  bool
	}{
		{"consolidated", func(c *Config) { c.noFallback = true }, false},
		{"exact", func(c *Config) { c.noFallback = true }, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e, _ := tracedPair(t, mode.mutate)
			for _, q := range obsTestQueries {
				var ans *Answer
				var err error
				if mode.exact {
					ans, err = e.RunExact(context.Background(), q)
				} else {
					ans, err = e.Run(context.Background(), q)
				}
				if err != nil {
					t.Fatal(err)
				}
				tr, ok := e.Tracer().Last()
				if !ok {
					t.Fatalf("%s: no trace", q)
				}
				spanSumsMatchCounters(t, q, tr, ans.Counters)
			}
		})
	}
}

// TestFallbackCountersMatchSpans: an answer whose rejected aggregate was
// re-answered exactly reports the approximate pass's work plus all of the
// fallback's, every counter — the sums of its trace's span attributes —
// while its selectivity stays the approximate pass's.
func TestFallbackCountersMatchSpans(t *testing.T) {
	e := heavyTailTable(t, Config{Seed: 45, BootstrapK: 40, Obs: obs.NewTracer(obs.Options{})}, 120000)
	if err := e.BuildSamples("T", 40000); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT MAX(v) FROM T"
	ans, err := e.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.FellBack() {
		t.Fatal("MAX on Pareto data did not fall back; test premise broken")
	}
	tr, ok := e.Tracer().Last()
	if !ok {
		t.Fatal("no trace")
	}
	spanSumsMatchCounters(t, q, tr, ans.Counters)
	if ans.Selectivity != 1 {
		t.Errorf("selectivity %v, want the approximate pass's 1", ans.Selectivity)
	}
}

// TestMetricsEndpoint boots an engine with a live metrics endpoint and
// checks both routes end to end.
func TestMetricsEndpoint(t *testing.T) {
	tr := obs.NewTracer(obs.Options{})
	cfg := Config{Seed: 5, Workers: 2, BootstrapK: 20, Obs: tr, MetricsAddr: "127.0.0.1:0"}
	e, _ := buildSessions(t, cfg, 20000)
	if err := e.BuildSamples("Sessions", 7000); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	addr, err := e.MetricsEndpoint()
	if err != nil || addr == "" {
		t.Fatalf("MetricsEndpoint = %q, %v", addr, err)
	}
	if e.Tracer() != tr {
		t.Fatal("engine did not adopt the provided tracer")
	}
	if _, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions"); err != nil {
		t.Fatal(err)
	}
	// The percentile query exercises the bootstrap, so resample accounting
	// shows up in the registry.
	if _, err := e.Run(context.Background(), "SELECT PERCENTILE(Time, 0.9) FROM Sessions"); err != nil {
		t.Fatal(err)
	}

	body := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	metrics := body("/metrics")
	for _, want := range []string{
		`aqp_queries_total{outcome="ok"} 2`,
		"# TYPE aqp_stage_duration_seconds histogram",
		"aqp_exec_rows_scanned_total",
		"aqp_bootstrap_resamples_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	var traces []obs.TraceSnapshot
	if err := json.Unmarshal([]byte(body("/debug/queries")), &traces); err != nil {
		t.Fatalf("/debug/queries not JSON: %v", err)
	}
	if len(traces) != 2 || traces[1].SQL != "SELECT AVG(Time) FROM Sessions" {
		t.Fatalf("unexpected traces: %+v", traces)
	}
}

// TestDefaultTracerFromMetricsAddr checks MetricsAddr alone enables
// telemetry.
func TestDefaultTracerFromMetricsAddr(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 3, MetricsAddr: "127.0.0.1:0"}, 200)
	defer e.Close()
	if e.Tracer() == nil {
		t.Fatal("MetricsAddr without Obs should create a tracer")
	}
	if _, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Tracer().Last(); !ok {
		t.Fatal("query left no trace")
	}
}

// TestQueryErrorsCarryIdentifier checks error wrapping: failures name the
// query and preserve the underlying error for errors.Unwrap.
func TestQueryErrorsCarryIdentifier(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 2}, 100)
	_, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Nowhere")
	if err == nil {
		t.Fatal("unknown table should error")
	}
	if !strings.Contains(err.Error(), "q1") || !strings.Contains(err.Error(), "Nowhere") {
		t.Fatalf("error lacks query identifier: %v", err)
	}
	_, err = e.Run(context.Background(), "SELECT MYSTERY(Time) FROM Sessions")
	if err == nil {
		t.Fatal("unregistered UDF should error")
	}
	if !strings.Contains(err.Error(), "q2") {
		t.Fatalf("untraced ids should increment: %v", err)
	}
	if errors.Unwrap(err) == nil {
		t.Fatalf("error not wrapped with %%w: %v", err)
	}
	long := "SELECT AVG(Time) FROM Nowhere WHERE City = 'somewhere far beyond'"
	_, err = e.Run(context.Background(), long)
	if err == nil || !strings.Contains(err.Error(), "...") {
		t.Fatalf("long SQL should be truncated in the identifier: %v", err)
	}
}

// TestNaNRelErrSurvivesJSON ensures a trace with non-finite attributes
// (e.g. rel_err on a zero estimate) still serializes.
func TestNaNRelErrSurvivesJSON(t *testing.T) {
	tr := obs.NewTracer(obs.Options{})
	qt := tr.StartQuery("synthetic")
	qt.Root().StartSpan(obs.StageEstimate).SetAttr("max_rel_err", math.Inf(1))
	qt.Finish(nil)
	last, _ := tr.Last()
	if _, err := json.Marshal(last); err != nil {
		t.Fatalf("trace with +Inf attr not JSON-encodable: %v", err)
	}
}
