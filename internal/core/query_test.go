package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/watchdog"
)

// TestRejectedGroupedSumCoverage: an engine that keeps rejects serves the bar
// of an aggregate the diagnostic rejects (here every group of a 12k-row
// sample, too few rows to diagnose), so a group's SUM and COUNT bars must
// hold on their own. Over 40 independently sampled engines they are the
// bootstrap's, have width, and cover each group's exact answer at the nominal
// rate within a 3σ binomial band. A closed form that holds the group's row
// count at the sample's gives COUNT no width and under-covers SUM.
func TestRejectedGroupedSumCoverage(t *testing.T) {
	const seeds = 40
	const query = "SELECT City, SUM(Time), COUNT(*) FROM Sessions GROUP BY City"
	ctx := context.Background()
	var truth map[string][]AggAnswer
	var covered, n [2]int
	for seed := range seeds {
		e, _ := buildSessions(t, Config{Seed: uint64(300 + seed), noFallback: true}, 60000)
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
		ans, err := e.Run(ctx, query)
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
		tr := obs.NewTracer(obs.Config{})
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
