package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/table"
)

// TestEndToEndNaiveVsOptimizedCounters drives the same query through both
// plan modes: the counters must reflect the physical difference. (What the
// cluster simulator makes of the two answers is checked where the simulator is
// used, in internal/experiments.)
func TestEndToEndNaiveVsOptimizedCounters(t *testing.T) {
	build := func(cfg Config) *Answer {
		t.Helper()
		cfg.BootstrapK = 30
		e, _ := buildSessions(t, cfg, 100000)
		if err := e.BuildSamples("Sessions", 40000); err != nil {
			t.Fatal(err)
		}
		// PERCENTILE forces the bootstrap path (QSet-2 flavour).
		ans, err := e.Run(context.Background(), "SELECT PERCENTILE(Time, 0.9) FROM Sessions WHERE City = 'NYC'")
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}

	opt := build(Config{Seed: 30, DisableFallback: true})
	naive := build(Config{Seed: 30, DisableFallback: true,
		DisableScanConsolidation: true, DisableOperatorPushdown: true})
	if naive.Counters.Scans <= opt.Counters.Scans {
		t.Errorf("naive scans (%d) should exceed optimized (%d)",
			naive.Counters.Scans, opt.Counters.Scans)
	}
}

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
		e := New(Config{Seed: uint64(1000 + trial), Workers: 4, SkipDiagnostics: true})
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

// TestDisableScanConsolidationCounters verifies the ablation flag changes
// the physical execution (rescans per resample) without changing the
// statistical outputs beyond resampling noise.
func TestDisableScanConsolidationCounters(t *testing.T) {
	run := func(disable bool) *Answer {
		t.Helper()
		e, _ := buildSessions(t, Config{Seed: 32, BootstrapK: 20,
			SkipDiagnostics: true, DisableScanConsolidation: disable}, 60000)
		if err := e.BuildSamples("Sessions", 20000); err != nil {
			t.Fatal(err)
		}
		ans, err := e.Run(context.Background(), "SELECT PERCENTILE(Time, 0.5) FROM Sessions")
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	consolidated := run(false)
	naive := run(true)
	if naive.Counters.Scans != consolidated.Counters.Scans+20 {
		t.Errorf("naive scans = %d, consolidated = %d, want +K=20 difference",
			naive.Counters.Scans, consolidated.Counters.Scans)
	}
	// Same sample and seed: the point estimates must agree exactly.
	a := consolidated.Groups[0].Aggs[0].Estimate
	b := naive.Groups[0].Aggs[0].Estimate
	if a != b {
		t.Errorf("estimates diverge across plan modes: %v vs %v", a, b)
	}
	// Interval widths agree up to bootstrap noise.
	wa := consolidated.Groups[0].Aggs[0].ErrorBar.HalfWidth
	wb := naive.Groups[0].Aggs[0].ErrorBar.HalfWidth
	if math.Abs(wa-wb) > 0.5*math.Max(wa, wb) {
		t.Errorf("interval widths implausibly far: %v vs %v", wa, wb)
	}
}

// TestSkipDiagnosticsPath ensures the diagnostics-off configuration never
// runs the diagnostic operator and never falls back.
func TestSkipDiagnosticsPath(t *testing.T) {
	e := heavyTailTable(t, Config{Seed: 33, BootstrapK: 20, SkipDiagnostics: true}, 60000)
	if err := e.BuildSamples("T", 30000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT MAX(v) FROM T")
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
