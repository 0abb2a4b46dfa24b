package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// obsTestQueries cover the pipeline variants: closed form, scaled sum with
// filter, bootstrap percentile, GROUP BY fan-out. They run on a sample of
// obsSampleRows rows, whose four City groups of ~4,000 rows clear the
// diagnostic's floor, so the GROUP BY runs on the sample rather than being
// planned exact before it.
const obsSampleRows = 16000

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
		if err := e.BuildSamples("Sessions", obsSampleRows); err != nil {
			t.Fatal(err)
		}
		return e
	}
	return mk(obs.NewTracer(obs.Config{})), mk(nil)
}

// recordQueries are the ways a query can finish, each once: answers (closed
// form, a diagnostic fallback, a bootstrap reject that falls back, a GROUP
// BY), a cached replay and a failed query.
func recordQueries(t *testing.T, e *Engine) []*Answer {
	t.Helper()
	var out []*Answer
	for _, q := range obsTestQueries {
		ans, err := e.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ans)
	}
	ans, err := e.Run(context.Background(), obsTestQueries[0])
	if err != nil || !ans.Cached {
		t.Fatalf("premise: the repeat replays from the answer cache (err %v)", err)
	}
	out = append(out, ans)
	if _, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Nowhere"); err == nil {
		t.Fatal("premise: a query on an unknown table fails")
	}
	return append(out, nil)
}

// recorded collects every record the engine finishes.
func recorded(e *Engine) *[]*obs.QueryRecord {
	var mu sync.Mutex
	var recs []*obs.QueryRecord
	e.recorded = func(r *obs.QueryRecord) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	}
	return &recs
}

// untimed renders a record without what the clock and the trace-id mint
// decide: its start, total, stage offsets and durations, decode time and
// trace identity. NaNs render as NaN, so equal records render equal.
func untimed(r *obs.QueryRecord) string {
	c := *r
	c.Start, c.TotalMs, c.TraceID, c.TraceContext = time.Time{}, 0, "", obs.TraceContext{}
	c.Stages = append([]obs.StageRecord(nil), r.Stages...)
	for i := range c.Stages {
		c.Stages[i].StartMs, c.Stages[i].Ms, c.Stages[i].Work.DecodeNanos = 0, 0, 0
	}
	c.StagesMs = map[string]float64{}
	for k := range r.StagesMs {
		c.StagesMs[k] = 0
	}
	return fmt.Sprintf("%+v", c)
}

// TestTracingDoesNotPerturbAnswers asserts the determinism guarantee:
// telemetry on or off, answers, error bars and verdicts are bit-identical —
// and so is each query's record, timing apart: the same id, outcome, stages,
// work and verdict evidence, for every way a query finishes.
func TestTracingDoesNotPerturbAnswers(t *testing.T) {
	traced, plain := tracedPair(t, func(c *Config) { c.CacheBytes = 1 << 20 })
	tracedRecs, plainRecs := recorded(traced), recorded(plain)
	as, bs := recordQueries(t, traced), recordQueries(t, plain)
	for qi := range as {
		a, b := as[qi], bs[qi]
		if a == nil || b == nil {
			continue
		}
		if len(a.Groups) != len(b.Groups) {
			t.Fatalf("%s: group counts differ", a.SQL)
		}
		for gi := range a.Groups {
			for ai := range a.Groups[gi].Aggs {
				x, y := a.Groups[gi].Aggs[ai], b.Groups[gi].Aggs[ai]
				if x.Estimate != y.Estimate ||
					x.ErrorBar.HalfWidth != y.ErrorBar.HalfWidth ||
					x.DiagnosticOK != y.DiagnosticOK ||
					x.Technique != y.Technique {
					t.Fatalf("%s: traced %+v != untraced %+v", a.SQL, x, y)
				}
			}
		}
	}
	if len(*tracedRecs) != len(as) || len(*plainRecs) != len(bs) {
		t.Fatalf("%d traced and %d untraced records for %d queries", len(*tracedRecs), len(*plainRecs), len(as))
	}
	byID := func(recs []*obs.QueryRecord) map[uint64]*obs.QueryRecord {
		m := map[uint64]*obs.QueryRecord{}
		for _, r := range recs {
			m[r.QID] = r
		}
		return m
	}
	plainByID := byID(*plainRecs)
	for _, x := range *tracedRecs {
		y := plainByID[x.QID]
		if x.QID == 0 || y == nil {
			t.Fatalf("record %q has id %d, and the untraced engine has no record with it", x.SQL, x.QID)
		}
		if x.TotalMs <= 0 || y.TotalMs <= 0 || x.TraceID == "" || y.TraceID == "" {
			t.Errorf("q%d %q: total_ms %v traced, %v untraced; trace ids %q, %q",
				x.QID, x.SQL, x.TotalMs, y.TotalMs, x.TraceID, y.TraceID)
		}
		if ux, uy := untimed(x), untimed(y); ux != uy {
			t.Errorf("q%d: traced and untraced records differ:\n traced   %s\n untraced %s", x.QID, ux, uy)
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

// TestStageCountersMatchAnswerCounters asserts the invariant that the
// record's per-stage work sums to the answer's Counters — for the
// consolidated pipeline, exact execution, an answer whose rejected aggregate
// was re-answered exactly (approximate pass plus all of the fallback's
// work) and a cached replay (nothing) — and that StagesMs sums the top-level
// stages by name.
func TestStageCountersMatchAnswerCounters(t *testing.T) {
	check := func(t *testing.T, e *Engine, run func() []*Answer) {
		t.Helper()
		recs := recorded(e)
		answers := run()
		if len(*recs) != len(answers) {
			t.Fatalf("%d records for %d answers", len(*recs), len(answers))
		}
		for i, ans := range answers {
			rec := (*recs)[i]
			if ans == nil { // the failed query: no answer to hold it to
				continue
			}
			if got, want := rec.Work(), ans.Counters; got != want {
				t.Errorf("%s: stage work sums to %+v, counters say %+v", ans.SQL, got, want)
			}
			sums := map[string]float64{}
			for _, s := range rec.Stages {
				if !s.Nested {
					sums[s.Stage] += s.Ms
				}
			}
			if len(rec.Stages) > 0 && !reflect.DeepEqual(sums, rec.StagesMs) {
				t.Errorf("%s: stages_ms %v, stages sum to %v", ans.SQL, rec.StagesMs, sums)
			}
		}
	}
	runAll := func(e *Engine, exact bool) func() []*Answer {
		return func() []*Answer {
			var out []*Answer
			for _, q := range obsTestQueries {
				ans, err := e.RunWithOptions(context.Background(), q, RunOptions{Exact: exact})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, ans)
			}
			return out
		}
	}
	t.Run("consolidated", func(t *testing.T) {
		e, _ := tracedPair(t, func(c *Config) { c.noFallback = true })
		check(t, e, runAll(e, false))
	})
	t.Run("exact", func(t *testing.T) {
		e, _ := tracedPair(t, nil)
		check(t, e, runAll(e, true))
	})
	t.Run("fallback", func(t *testing.T) {
		e := heavyTailTable(t, Config{Seed: 45, BootstrapK: 40}, 120000)
		if err := e.BuildSamples("T", 40000); err != nil {
			t.Fatal(err)
		}
		check(t, e, func() []*Answer {
			ans, err := e.Run(context.Background(), "SELECT MAX(v) FROM T WHERE v > 0")
			if err != nil {
				t.Fatal(err)
			}
			if !ans.FellBack() {
				t.Fatal("MAX on Pareto data did not fall back; test premise broken")
			}
			if ans.Selectivity != 1 {
				t.Errorf("selectivity %v, want the approximate pass's 1", ans.Selectivity)
			}
			return []*Answer{ans}
		})
	})
	t.Run("every finish", func(t *testing.T) {
		e, _ := tracedPair(t, func(c *Config) { c.CacheBytes = 1 << 20 })
		check(t, e, func() []*Answer { return recordQueries(t, e) })
	})
}

// TestMetricsEndpoint boots an engine with a live metrics endpoint and
// checks both routes end to end.
func TestMetricsEndpoint(t *testing.T) {
	tr := obs.NewTracer(obs.Config{})
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
	tr := obs.NewTracer(obs.Config{})
	tr.Finish(&obs.QueryRecord{SQL: "synthetic", Outcome: "ok",
		Stages: []obs.StageRecord{{Stage: obs.StageEstimate, MaxRelErr: math.Inf(1)}}})
	last, _ := tr.Last()
	if _, err := json.Marshal(last); err != nil {
		t.Fatalf("trace with +Inf attr not JSON-encodable: %v", err)
	}
}
