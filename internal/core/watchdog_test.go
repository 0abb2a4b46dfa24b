package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/rng"
	"repro/internal/table"
	"repro/internal/watchdog"
)

// bucketTable registers a Sessions table whose rows are assigned to
// `buckets` random disjoint buckets via column B; averaging one bucket per
// query gives approximately independent coverage trials.
func bucketTable(t *testing.T, cfg Config, n, buckets int) *Engine {
	t.Helper()
	src := rng.New(555)
	times := make(table.Float64Col, n)
	bs := make(table.StringCol, n)
	for i := 0; i < n; i++ {
		times[i] = 60 + 20*src.NormFloat64()
		bs[i] = fmt.Sprintf("b%d", src.Intn(buckets))
	}
	tbl := table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "B", Type: table.String},
	}, times, bs)
	e := New(cfg)
	if err := e.RegisterTable("Sessions", tbl); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWatchdogFlagsMiscalibratedMax is the acceptance criterion for the
// dangerous direction: a deliberately miscalibrated estimator — bootstrap
// error bars on MAX over a heavy tail, the paper's Fig. 1 failure mode,
// with the per-query diagnostic and the fallback both disabled so nothing
// else catches it — must raise an undercoverage alert within one rolling
// window. Everything is deterministic under the fixed seed: the audit
// cadence is a counter, the sample is fixed, and exact re-execution
// consumes no randomness.
func TestWatchdogFlagsMiscalibratedMax(t *testing.T) {
	bus := alert.New(alert.Config{})
	wd := watchdog.New(watchdog.Config{
		Window: 64, MinAudits: 8, AuditFraction: 1, Synchronous: true, Alerts: bus,
	})
	e := heavyTailTable(t, Config{
		Seed: 21, BootstrapK: 40,
		skipDiagnostics: true, noFallback: true,
		Watchdog: wd,
	}, 50000)
	if err := e.BuildSamples("T", 1000); err != nil {
		t.Fatal(err)
	}

	// Self-check the miscalibration premise: the sample's MAX undershoots
	// the population's, and the bootstrap interval cannot reach it.
	approx, err := e.Run(context.Background(), "SELECT MAX(v) FROM T WHERE v > 0")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := e.RunExact(context.Background(), "SELECT MAX(v) FROM T WHERE v > 0")
	if err != nil {
		t.Fatal(err)
	}
	if hi := approx.Groups[0].Aggs[0].ErrorBar.Hi(); hi >= exact.Groups[0].Aggs[0].Estimate {
		t.Fatalf("premise broken: MAX interval hi %g reaches truth %g — pick a different seed",
			hi, exact.Groups[0].Aggs[0].Estimate)
	}

	// Serve one window's worth of distinct MAX queries; every one is
	// audited, every interval misses the truth, so the alert must fire as
	// soon as MinAudits accrue — well within the 64-query window.
	for i := 0; i < 12; i++ {
		q := fmt.Sprintf("SELECT MAX(v) FROM T WHERE v > 0.%d", i)
		if _, err := e.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	var under *alert.Event
	for _, ev := range bus.Active() {
		if ev.Kind == string(watchdog.Undercoverage) {
			under = &ev
		}
	}
	if under == nil {
		t.Fatalf("no undercoverage alert after a window of missed intervals; status: %+v",
			wd.Status())
	}
	if under.Severity != alert.SeverityCritical || under.Labels["agg"] != "max" {
		t.Fatalf("undercoverage alert = %+v, want critical on max", under)
	}
	k := wd.Status().Keys[0]
	if k.CoverageWindow > 64 {
		t.Fatalf("alert needed %d audits, more than one rolling window", k.CoverageWindow)
	}
	if under.Observed >= k.CoverageLo {
		t.Fatalf("alert inconsistent: observed %v within band [%v,%v]",
			under.Observed, k.CoverageLo, k.CoverageHi)
	}
}

// TestWatchdogQuietOnCalibratedQueries is the false-positive acceptance
// criterion: 200+ distinct queries answered with well-calibrated CLT
// intervals, every one audited, must never trip an alert — the binomial
// tolerance band absorbs the sampling noise of ~95% empirical coverage.
//
// The workload matters: each query averages a different random disjoint
// bucket of the population, so the coverage trials are (approximately)
// independent Bernoulli draws. Filters that nest (WHERE x < c for rising
// c) would make the trials near-perfectly correlated and the binomial
// band meaningless.
func TestWatchdogQuietOnCalibratedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("200 audited queries; skipped under -short")
	}
	bus := alert.New(alert.Config{})
	wd := watchdog.New(watchdog.Config{
		Window: 200, MinAudits: 20, AuditFraction: 1, Synchronous: true, Alerts: bus,
	})
	// Diagnostics are skipped: their subsample ladder sees ~1/256 of each
	// subsample after the bucket filter and rejects on junk verdicts,
	// which would fall every query back to exact and leave no intervals
	// to audit. The subject here is interval calibration, not the
	// per-query diagnostic.
	e := bucketTable(t, Config{Seed: 22, skipDiagnostics: true, Watchdog: wd}, 80000, 256)
	if err := e.BuildSamples("Sessions", 20000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 210; i++ {
		q := fmt.Sprintf("SELECT AVG(Time) FROM Sessions WHERE B = 'b%d'", i)
		if _, err := e.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if h := bus.History(); len(h) != 0 {
		t.Fatalf("calibrated estimator raised alerts: %+v", h)
	}
	// The quiet verdict must rest on real audits, not an empty window.
	st := wd.Status()
	if len(st.Keys) == 0 {
		t.Fatal("watchdog observed no keys")
	}
	k := st.Keys[0]
	if k.CoverageWindow < 150 {
		t.Fatalf("only %d audited trials accrued, want >= 150", k.CoverageWindow)
	}
	if k.Coverage < k.CoverageLo || k.Coverage > k.CoverageHi {
		t.Fatalf("coverage %v outside band [%v,%v] yet no alert",
			k.Coverage, k.CoverageLo, k.CoverageHi)
	}
}

// TestTelemetryDoesNotPerturbAnswers extends PR 2's inertness invariant to
// the full observability stack: tracer + event log + watchdog with every
// query audited must leave answers bit-identical to a bare engine.
func TestTelemetryDoesNotPerturbAnswers(t *testing.T) {
	mk := func(full bool) *Engine {
		cfg := Config{Seed: 23, Workers: 3, BootstrapK: 30}
		if full {
			cfg.Obs = obs.NewTracer(obs.Config{})
			cfg.EventLog = obs.NewEventLog(io.Discard, obs.Config{})
			cfg.Watchdog = watchdog.New(watchdog.Config{
				AuditFraction: 1, Synchronous: true,
				Metrics: cfg.Obs.Registry(),
			})
		}
		e, _ := buildSessions(t, cfg, 30000)
		if err := e.BuildSamples("Sessions", obsSampleRows); err != nil {
			t.Fatal(err)
		}
		return e
	}
	loaded, plain := mk(true), mk(false)
	for _, q := range obsTestQueries {
		a, err := loaded.Run(context.Background(), q)
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
					t.Fatalf("%s: full telemetry %+v != bare %+v", q, x, y)
				}
			}
		}
	}
}

// TestEventLogRecordsQueriesAndAudits asserts the one-record-per-query
// contract end to end: served queries, watchdog audits and failed parses
// all appear as parseable JSON lines with the promised fields.
func TestEventLogRecordsQueriesAndAudits(t *testing.T) {
	var buf bytes.Buffer
	wd := watchdog.New(watchdog.Config{AuditFraction: 1, Synchronous: true})
	e, _ := buildSessions(t, Config{
		Seed: 24, BootstrapK: 30,
		Obs:      obs.NewTracer(obs.Config{}),
		EventLog: obs.NewEventLog(&buf, obs.Config{}),
		Watchdog: wd,
	}, 20000)
	if err := e.BuildSamples("Sessions", 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunExact(context.Background(), "SELECT COUNT(*) FROM Sessions"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), "SELECT FROM nonsense"); err == nil {
		t.Fatal("parse error expected")
	}

	var kinds []string
	var last map[string]any // the latest query line
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("unparseable event line %q: %v", sc.Text(), err)
		}
		kind, _ := rec["kind"].(string)
		kinds = append(kinds, kind)
		if rec["sql"] == "" {
			t.Fatalf("event without sql: %v", rec)
		}
		switch kind {
		case "query":
			if _, ok := rec["outcome"].(string); !ok {
				t.Fatalf("query event without outcome: %v", rec)
			}
			last = rec
		case "audit":
			// The audit line joins back to the query it audited.
			if last == nil || rec["qid"] != last["qid"] || rec["qid"] == float64(0) ||
				rec["trace_id"] != last["trace_id"] || rec["trace_id"] == nil ||
				rec["sql"] != last["sql"] {
				t.Fatalf("audit line %v does not name the query before it: %v", rec, last)
			}
		default:
			t.Fatalf("unexpected event kind %q", kind)
		}
	}
	joined := strings.Join(kinds, ",")
	// AVG query then its audit record, exact COUNT, failed parse.
	if got, want := joined, "query,audit,query,query"; got != want {
		t.Fatalf("event kinds = %s, want %s", got, want)
	}
	// Re-run to inspect one full query record's fields.
	buf.Reset()
	if _, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'"); err != nil {
		t.Fatal(err)
	}
	// The query record comes first; its audit record follows.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"qid", "sql", "outcome", "total_ms", "sample_rows", "stages_ms", "aggs"} {
		if _, ok := rec[key]; !ok {
			t.Fatalf("query event missing %q: %v", key, rec)
		}
	}
	aggs := rec["aggs"].([]any)
	agg := aggs[0].(map[string]any)
	if agg["verdict"] != "accept" && agg["verdict"] != "reject" {
		t.Fatalf("agg verdict = %v", agg["verdict"])
	}
}

// countAudits rebinds the watchdog's auditor to the engine's own, counted.
func countAudits(e *Engine, wd *watchdog.Watchdog) *int {
	calls := new(int)
	wd.Bind(func(ctx context.Context, rec *obs.QueryRecord) (map[watchdog.AggInstance]float64, error) {
		*calls++
		return e.auditExact(ctx, rec)
	})
	return calls
}

// TestWatchdogIgnoresExactAnswers: who the watchdog watches is a property of
// the answer, not of the entry point. A table without samples is answered
// exactly whichever way the query comes in, so it is neither observed nor
// audited — through Run as through RunExact. (Run used to observe it under
// avg@exact and, at AuditFraction 1, pay a second exact scan per query for an
// audit that then skipped every aggregate.)
func TestWatchdogIgnoresExactAnswers(t *testing.T) {
	wd := watchdog.New(watchdog.Config{AuditFraction: 1, Synchronous: true})
	e, _ := buildSessions(t, Config{Seed: 25, Watchdog: wd}, 20000)
	audits := countAudits(e, wd)
	for i := 0; i < 3; i++ {
		for _, opts := range []RunOptions{{}, {Exact: true}} {
			ans, err := e.RunWithOptions(context.Background(), "SELECT AVG(Time) FROM Sessions", opts)
			if err != nil {
				t.Fatal(err)
			}
			if !ans.Groups[0].Aggs[0].Exact {
				t.Fatal("sample-less table not answered exactly")
			}
		}
	}
	if st := wd.Status(); st.Observations != 0 || *audits != 0 {
		t.Errorf("exact answers: %d observations (%+v), %d audits; want none", st.Observations, st.Keys, *audits)
	}
}

// TestWatchdogDoesNotAuditFullyFallenBackAnswers: an answer whose every
// aggregate the diagnostic rejected, and the fallback re-answered exactly,
// still lands in the reject-drift window — it ran on a sample — but starts no
// audit: there is no estimated interval left in it to hold to account.
func TestWatchdogDoesNotAuditFullyFallenBackAnswers(t *testing.T) {
	wd := watchdog.New(watchdog.Config{AuditFraction: 1, Synchronous: true})
	e := heavyTailTable(t, Config{Seed: 26, BootstrapK: 30, Watchdog: wd}, 80000)
	if err := e.BuildSamples("T", 24000); err != nil {
		t.Fatal(err)
	}
	audits := countAudits(e, wd)
	ans, err := e.Run(context.Background(), "SELECT MAX(v) FROM T WHERE v > 0")
	if err != nil {
		t.Fatal(err)
	}
	if a := ans.Groups[0].Aggs[0]; a.DiagnosticOK || !a.Exact || ans.SampleRows != 24000 {
		t.Fatalf("want MAX rejected on the sample and re-answered exactly, got %+v on %d rows", a, ans.SampleRows)
	}
	st := wd.Status()
	if st.Observations != 1 || len(st.Keys) != 1 || st.Keys[0].RejectWindow != 1 || st.Keys[0].RejectRate != 1 {
		t.Errorf("the reject did not reach the drift window: %+v", st)
	}
	if *audits != 0 {
		t.Errorf("%d audits of an answer with nothing to audit", *audits)
	}
	// An accepted closed-form aggregate is still audited.
	if _, err := e.Run(context.Background(), "SELECT COUNT(*) FROM T WHERE v < 2"); err != nil {
		t.Fatal(err)
	}
	if *audits != 1 {
		t.Errorf("%d audits after an accountable answer, want 1", *audits)
	}
}
