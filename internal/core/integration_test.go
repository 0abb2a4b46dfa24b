package core

import (
	"context"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/table"
)

// TestEndToEndAnswerQuality checks the statistical contract across many
// engine answers: 95% error bars over repeated engine runs should bracket
// the exact answer the vast majority of the time.
func TestEndToEndAnswerQuality(t *testing.T) {
	src := rng.New(31)
	n := 150000
	times := make(table.Float64Col, n)
	for i := range times {
		times[i] = src.LogNormal(4, 0.5)
	}
	tbl := table.MustNew(table.Schema{{Name: "Time", Type: table.Float64}}, times)

	truth := stats.Mean(times)
	covered := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		e := New(Config{Seed: uint64(1000 + trial), Workers: 4, skipDiagnostics: true})
		if err := e.RegisterTable("t", tbl); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildSamples("t", 8000); err != nil {
			t.Fatal(err)
		}
		ans, err := e.Run(context.Background(), "SELECT AVG(Time) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if ans.Groups[0].Aggs[0].ErrorBar.Contains(truth) {
			covered++
		}
	}
	if covered < trials*85/100 {
		t.Errorf("error bars covered truth %d/%d times, want ≥ 85%%", covered, trials)
	}
}

// TestSkipDiagnosticsPath ensures the diagnostics-off configuration never
// runs the diagnostic operator and never falls back.
func TestSkipDiagnosticsPath(t *testing.T) {
	e := heavyTailTable(t, Config{Seed: 33, BootstrapK: 20, skipDiagnostics: true}, 60000)
	if err := e.BuildSamples("T", 30000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT MAX(v) FROM T WHERE v > 0")
	if err != nil {
		t.Fatal(err)
	}
	agg := ans.Groups[0].Aggs[0]
	if !agg.DiagnosticOK {
		t.Error("diagnostics disabled but a verdict was produced")
	}
	if agg.Exact {
		t.Error("no fallback expected without diagnostics")
	}
	if ans.Counters.DiagSubqueries != 0 {
		t.Error("diagnostic subqueries recorded with diagnostics disabled")
	}
}
