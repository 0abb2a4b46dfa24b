package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/stats"
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
