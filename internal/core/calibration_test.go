package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/table"
)

// TestCalibrationCoverage is the end-to-end statistical contract of the
// paper ("knowing when you're wrong"): a 95% confidence interval must
// cover the ground truth in ~95% of independent runs. It executes 200+
// traced queries — each trial re-samples the fixed population under a
// fresh seed and answers through the full engine pipeline — and requires
// the empirical coverage to sit inside a binomial tolerance band around
// the nominal level.
//
// With n trials at p = 0.95 the binomial sd is √(p(1-p)/n) ≈ 1.54% at
// n=200; we reject only below p − 4sd ≈ 88.8%. Over-coverage is allowed:
// the finite-population correction and symmetric half-widths make the
// intervals conservative by design, never anti-conservative.
func TestCalibrationCoverage(t *testing.T) {
	const (
		popRows    = 20000
		sampleRows = 2000
		trials     = 220
	)
	// Fixed skewed population (log-normal-ish session times) shared by all
	// trials; truth is computed exactly on it.
	src := rng.New(1234)
	times := make(table.Float64Col, popRows)
	for i := range times {
		times[i] = math.Exp(1 + 0.6*src.NormFloat64())
	}
	var sum float64
	for _, v := range times {
		sum += v
	}
	truthAvg := sum / popRows
	truthP50 := stats.Quantile(append([]float64(nil), times...), 0.5)

	cases := []struct {
		name  string
		query string
		truth float64
	}{
		{"closed-form-avg", "SELECT AVG(Time) FROM Sessions", truthAvg},
		{"bootstrap-median", "SELECT PERCENTILE(Time, 0.5) FROM Sessions", truthP50},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tr := obs.NewTracer(obs.Config{RingSize: trials})
			covered, degenerate := 0, 0
			for trial := 0; trial < trials; trial++ {
				e := New(Config{Seed: uint64(9000 + trial), BootstrapK: 120,
					skipDiagnostics: true, noFallback: true, Obs: tr})
				tbl := table.MustNew(table.Schema{{Name: "Time", Type: table.Float64}}, times)
				if err := e.RegisterTable("Sessions", tbl); err != nil {
					t.Fatal(err)
				}
				if err := e.BuildSamples("Sessions", sampleRows); err != nil {
					t.Fatal(err)
				}
				ans, err := e.Run(context.Background(), c.query)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				agg := ans.Groups[0].Aggs[0]
				if math.IsNaN(agg.ErrorBar.HalfWidth) || agg.ErrorBar.HalfWidth <= 0 {
					degenerate++
					continue
				}
				if math.Abs(agg.Estimate-c.truth) <= agg.ErrorBar.HalfWidth {
					covered++
				}
			}
			if degenerate > trials/20 {
				t.Fatalf("%d/%d trials produced no usable error bar", degenerate, trials)
			}
			n := trials - degenerate
			coverage := float64(covered) / float64(n)
			sd := math.Sqrt(0.95 * 0.05 / float64(n))
			floor := 0.95 - 4*sd
			t.Logf("coverage %d/%d = %.3f (floor %.3f)", covered, n, coverage, floor)
			if coverage < floor {
				t.Errorf("coverage %.3f below binomial tolerance floor %.3f", coverage, floor)
			}
			// Every trial must have been traced with an ok outcome — these
			// are the "200 seeded trace queries" of the serving contract.
			oks := 0
			for _, snap := range tr.Recent() {
				if snap.Outcome == "ok" {
					oks++
				}
			}
			if oks < trials {
				t.Errorf("traced ok outcomes = %d, want >= %d", oks, trials)
			}
		})
	}
}
