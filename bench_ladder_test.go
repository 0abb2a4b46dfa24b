package repro

import (
	"context"
	"testing"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/workload"
)

// ladderSample is what BenchmarkDiagnosticLadder diagnoses: 50,000 rows, so
// the ladder's subsamples are 62/125/250 rows — lognormal, on which the
// bootstrap is rejected for the order statistics, or Gaussian, on which the
// diagnostic accepts (nearly) every seed and so runs the whole ladder.
func ladderSample(accepting bool) []float64 {
	src := rng.New(61)
	s := make([]float64, 50000)
	for i := range s {
		if accepting {
			s[i] = 100 + 15*src.NormFloat64()
		} else {
			s[i] = src.LogNormal(4, 0.6)
		}
	}
	return s
}

// BenchmarkDiagnosticLadder measures one diagnosis — what the serving path
// pays before every answer. ξ is the bootstrap (K = 100) for the aggregates
// without a closed form: up to 300 subsamples, each resampled 100 times with
// θ on a weight vector per resample (BenchmarkDiagnosticParallel covers AVG
// under the bootstrap, whose ξ runs on the fused kernel). On the lognormal
// column the diagnostic rejects, and how early is the cost: xi-evals/op
// counts the subsamples ξ ran on, a number that repeats exactly. The
// accepting cases pin the path that must evaluate all 300 — AVG/closed-form
// with one fold per subsample and no batching.
func BenchmarkDiagnosticLadder(b *testing.B) {
	rejecting, accepting := ladderSample(false), ladderSample(true)
	boot := estimator.Bootstrap{K: 100}
	udf := func(name string) estimator.Query {
		return estimator.Query{Kind: estimator.UDF, FnName: name, Fn: workload.UDFByName(name).Fn}
	}
	for _, c := range []struct {
		name string
		s    []float64
		q    estimator.Query
		xi   estimator.Estimator
	}{
		{"MIN", rejecting, estimator.Query{Kind: estimator.Min}, boot},
		{"PERCENTILE95", rejecting, estimator.Query{Kind: estimator.Percentile, Pct: 0.95}, boot},
		{"median_abs_dev", rejecting, udf("median_abs_dev"), boot},
		{"median_abs_dev/accepting", accepting, udf("median_abs_dev"), boot},
		{"trimmed_mean_5", rejecting, udf("trimmed_mean_5"), boot},
		{"top_decile_mean", rejecting, udf("top_decile_mean"), boot},
		{"frac_above_median_x2", rejecting, udf("frac_above_median_x2"), boot},
		{"AVG/closed-form", accepting, estimator.Query{Kind: estimator.Avg}, estimator.ClosedForm{UseStudentT: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := c.s
			t := c.q.Eval(s) // θ(S): the caller's, computed once for its answer
			theta := func() float64 { return t }
			cfg := diagnostic.DefaultConfig(len(s), diagnostic.P)
			b.ReportAllocs()
			evals := 0
			for i := 0; i < b.N; i++ {
				res, err := diagnostic.Run(context.Background(), rng.New(uint64(i)), s, theta, c.q, c.xi, cfg)
				if err != nil || res.RungsRun == 0 {
					b.Fatalf("%+v, err %v", res, err)
				}
				evals += xiEvaluations(res, cfg.P)
			}
			b.ReportMetric(float64(evals)/float64(b.N), "xi-evals/op")
		})
	}
}

// TestDiagnosticLadderDecidesEarly gates, as a count and not a time, what
// BenchmarkDiagnosticLadder/MIN measures: rejecting the bootstrap for MIN on
// the benchmark's sample takes at most 32 of the ladder's 300 ξ evaluations,
// and an aggregate the diagnostic accepts still gets all 300.
func TestDiagnosticLadderDecidesEarly(t *testing.T) {
	rejecting, accepting := ladderSample(false), ladderSample(true)
	cfg := diagnostic.DefaultConfig(len(rejecting), diagnostic.P)
	cfg.Workers = 2
	minQ, avgQ := estimator.Query{Kind: estimator.Min}, estimator.Query{Kind: estimator.Avg}
	minOf := func() float64 { return minQ.Eval(rejecting) }
	avgOf := func() float64 { return avgQ.Eval(accepting) }
	for seed := uint64(0); seed < 5; seed++ {
		res, err := diagnostic.Run(context.Background(), rng.New(seed), rejecting, minOf, minQ,
			estimator.Bootstrap{K: 100}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := xiEvaluations(res, cfg.P); res.OK || n > 32 {
			t.Errorf("seed %d: MIN took %d ξ evaluations (want <= 32): %+v", seed, n, res)
		}
		res, err = diagnostic.Run(context.Background(), rng.New(seed), accepting, avgOf, avgQ,
			estimator.ClosedForm{UseStudentT: true}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := xiEvaluations(res, cfg.P); !res.OK || n != 300 || len(res.PerSize) != 3 {
			t.Errorf("seed %d: AVG closed-form took %d ξ evaluations (want all 300): %+v", seed, n, res)
		}
	}
}

// xiEvaluations is how many subsamples ξ was run on — p per size on a full
// ladder.
func xiEvaluations(r diagnostic.Result, p int) int {
	if r.RungsRun == 0 {
		return 0
	}
	return (r.RungsRun-1)*p + r.DecidedAfter
}
