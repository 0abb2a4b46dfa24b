package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/watchdog"
)

func TestRowsForBound(t *testing.T) {
	// A bound 10× tighter needs 100× the rows.
	if loose, tight := rowsForBound(2000, 0.1, 0.05), rowsForBound(2000, 0.1, 0.005); tight != 100*loose {
		t.Errorf("rows for a 10x tighter bound: %d, want 100 × %d", tight, loose)
	}
	z := stats.StdNormalQuantile(0.5 + estimator.ConfidenceLevel/2)
	// A near-zero mean, a 6,400-row sample ~10⁸× off its bound and an
	// infinite error all project past the int range, and saturate.
	for _, c := range []struct {
		n          int
		rel, bound float64
	}{{1, z * 1 / 1e-12, 0.01}, {6400, 0.0245, 1e-10}, {6400, math.Inf(1), 0.01}} {
		if got := rowsForBound(c.n, c.rel, c.bound); got != math.MaxInt {
			t.Errorf("rowsForBound(%d, %g, %g) = %d, want math.MaxInt", c.n, c.rel, c.bound, got)
		}
	}
	// The time budget's projection saturates the same way.
	if got := withHeadroom(math.Inf(1)); got != math.MaxInt {
		t.Errorf("withHeadroom(+Inf) = %d, want math.MaxInt", got)
	}
}

// TestEstimateRequiredRows projects, from the error bar a query measured on
// the smallest sample, the rows an error bound needs: ~100× the rows for a
// 10× tighter bound, and for Time (CV ~0.33) a few hundred rows for 5%.
func TestEstimateRequiredRows(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 20, skipDiagnostics: true}, 200000)
	if err := e.BuildSamples("Sessions", 2000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions")
	if err != nil {
		t.Fatal(err)
	}
	rel := ans.Groups[0].Aggs[0].RelErr
	if ans.SampleRows != 2000 || !(rel > 0) {
		t.Fatalf("pilot ran on %d rows with relative error %v, want 2000 rows and an error > 0", ans.SampleRows, rel)
	}
	loose, tight := rowsForBound(ans.SampleRows, rel, 0.05), rowsForBound(ans.SampleRows, rel, 0.005)
	if ratio := float64(tight) / float64(loose); ratio < 50 || ratio > 200 {
		t.Errorf("rows ratio for 10x tighter bound = %v, want ~100", ratio)
	}
	if loose < 20 || loose > 5000 {
		t.Errorf("loose-bound rows = %d, implausible", loose)
	}
}

// TestRequiredSampleSizeForErrorReexport: a one-row pilot of mean 10 and
// standard deviation 5 has the relative error z·σ/|μ|; a 10% bound needs
// (1.96·5/(0.1·10))² ≈ 96 rows, before the headroom.
func TestRequiredSampleSizeForErrorReexport(t *testing.T) {
	z := stats.StdNormalQuantile(0.5 + estimator.ConfidenceLevel/2)
	if n := float64(rowsForBound(1, z*5/10, 0.1)) / headroom; n < 90 || n > 102 {
		t.Errorf("rows for mean 10, stddev 5, bound 0.1: %v, want ~96", n)
	}
}

// TestErrorBoundSkipSaturates: a bound 10¹⁰× tighter than the smallest
// sample's error projects past the int range. Saturated, the projection rules
// out every larger sample, so the escalation goes from the one approximate
// run straight to the exact fallback, at 1e-10 as at 1e-9.
func TestErrorBoundSkipSaturates(t *testing.T) {
	tr := obs.NewTracer(obs.Options{})
	e := New(Config{Seed: 7, Workers: 2, BootstrapK: 40, Obs: tr})
	if err := e.RegisterTable("T", verdictTable()); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildSamples("T", 6400, 7000, 48000); err != nil {
		t.Fatal(err)
	}
	var want float64
	for i, bound := range []float64{1e-9, 1e-10} {
		ans, err := e.RunWithOptions(context.Background(), "SELECT AVG(g - 40) FROM T", RunOptions{ErrorBound: bound})
		if err != nil {
			t.Fatal(err)
		}
		snap, _ := tr.Last()
		if plans := strings.Count(snap.Structure(), " plan("); plans != 2 {
			t.Errorf("bound %g ran %d plans, want 2: one approximate, then the exact fallback", bound, plans)
		}
		a := ans.Groups[0].Aggs[0]
		if i == 0 {
			want = a.Estimate
		}
		if !a.Exact || a.Estimate != want {
			t.Errorf("bound %g: exact=%v estimate %v, want the exact answer %v", bound, a.Exact, a.Estimate, want)
		}
	}
}

func TestTimeBudget(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 22, skipDiagnostics: true}, 400000)
	if err := e.BuildSamples("Sessions", 2000, 20000, 200000); err != nil {
		t.Fatal(err)
	}
	// A generous budget should pick a large sample.
	generous, err := e.RunWithOptions(context.Background(), "SELECT AVG(Time) FROM Sessions", RunOptions{TimeBudget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if generous.SampleRows < 20000 {
		t.Errorf("generous budget used only %d rows", generous.SampleRows)
	}
	// A microscopic budget sticks with the pilot sample.
	tiny, err := e.RunWithOptions(context.Background(), "SELECT AVG(Time) FROM Sessions", RunOptions{TimeBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.SampleRows != 2000 {
		t.Errorf("tiny budget used %d rows, want pilot 2000", tiny.SampleRows)
	}
	// Zero is "no budget" now that the budget is a field of the request; the
	// value the request rejects is a negative one.
	if _, err := e.RunWithOptions(context.Background(), "SELECT AVG(Time) FROM Sessions", RunOptions{TimeBudget: -time.Second}); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestTimeBudgetGroupedSumCoverage: a time budget serves the bar of an
// aggregate the diagnostic rejects (here every group of a 12k-row sample,
// too few rows to diagnose), so a group's SUM and COUNT bars must hold on
// their own. Over 40 independently sampled engines they are the bootstrap's,
// have width, and cover each group's exact answer at the nominal rate within
// a 3σ binomial band. A closed form that holds the group's row count at the
// sample's gives COUNT no width and under-covers SUM.
func TestTimeBudgetGroupedSumCoverage(t *testing.T) {
	const seeds = 40
	const query = "SELECT City, SUM(Time), COUNT(*) FROM Sessions GROUP BY City"
	ctx := context.Background()
	var truth map[string][]AggAnswer
	var covered, n [2]int
	for seed := range seeds {
		e, _ := buildSessions(t, Config{Seed: uint64(300 + seed)}, 60000)
		if truth == nil {
			exact, err := e.RunExact(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			truth = map[string][]AggAnswer{}
			for _, g := range exact.Groups {
				truth[g.Key] = g.Aggs
			}
		}
		if err := e.BuildSamples("Sessions", 12000); err != nil {
			t.Fatal(err)
		}
		ans, err := e.RunWithOptions(ctx, query, RunOptions{TimeBudget: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range ans.Groups {
			for ai, a := range g.Aggs {
				if a.Technique != "bootstrap" || !(a.ErrorBar.HalfWidth > 0) {
					t.Fatalf("seed %d group %s %s: technique %q half-width %v, want a bootstrap bar with width",
						seed, g.Key, a.Name, a.Technique, a.ErrorBar.HalfWidth)
				}
				n[ai]++
				if math.Abs(a.Estimate-truth[g.Key][ai].Estimate) <= a.ErrorBar.HalfWidth {
					covered[ai]++
				}
			}
		}
	}
	for ai, name := range []string{"SUM", "COUNT"} {
		lo, hi := watchdog.Band(estimator.ConfidenceLevel, n[ai], 3)
		cov := float64(covered[ai]) / float64(n[ai])
		t.Logf("grouped %s: coverage %d/%d = %.3f, band [%.3f, %.3f]", name, covered[ai], n[ai], cov, lo, hi)
		if cov < lo || cov > hi {
			t.Errorf("grouped %s coverage %.3f outside [%.3f, %.3f]", name, cov, lo, hi)
		}
	}
}

// TestDiagnosticBootstrapK: the diagnostic validates a group's SUM with the
// bootstrap its bar is served from, so each of ξ's intervals draws the plan's
// K resamples: Config.BootstrapK, capped by RunOptions.BootstrapK.
func TestDiagnosticBootstrapK(t *testing.T) {
	for _, c := range []struct{ cfgK, capK, want int }{{20, 0, 20}, {20, 10, 10}, {100, 10, 10}} {
		tr := obs.NewTracer(obs.Options{})
		e, _ := buildSessions(t, Config{Seed: 3, BootstrapK: c.cfgK, Obs: tr}, 250000)
		if err := e.BuildSamples("Sessions", 50000); err != nil {
			t.Fatal(err)
		}
		ans, err := e.RunWithOptions(context.Background(),
			"SELECT City, SUM(Time) FROM Sessions GROUP BY City", RunOptions{BootstrapK: c.capK})
		if err != nil {
			t.Fatal(err)
		}
		// Each rung counts P truth subqueries and one ξ call per subsample.
		xiCalls := int64(ans.Counters.DiagSubqueries)
		for _, g := range ans.Groups {
			xiCalls -= int64(diagnostic.P * g.Aggs[0].DiagnosticRungsRun)
		}
		got := tr.Registry().Counter("aqp_bootstrap_resamples_total", "").Value()
		if xiCalls <= 0 || got != int64(c.want)*xiCalls {
			t.Errorf("Config.BootstrapK %d, cap %d: %d ξ resamples over %d ξ calls, want %d each",
				c.cfgK, c.capK, got, xiCalls, c.want)
		}
	}
}
