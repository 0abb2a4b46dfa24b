package repro

import (
	"context"
	"testing"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/workload"
)

// BenchmarkDiagnosticLadder measures one diagnosis whose ξ is the bootstrap
// (K = 100) for the aggregates without a closed form — what the serving
// path pays before every MIN, MAX, PERCENTILE and UDF answer: 300 subsamples
// (62/125/250 rows of a 50,000-row lognormal sample), each resampled 100
// times. BenchmarkDiagnosticParallel covers AVG, whose ξ runs on the fused
// kernel; these run θ on a weight vector per resample.
func BenchmarkDiagnosticLadder(b *testing.B) {
	src := rng.New(61)
	s := make([]float64, 50000)
	for i := range s {
		s[i] = src.LogNormal(4, 0.6)
	}
	for _, c := range []struct {
		name string
		q    estimator.Query
	}{
		{"MIN", estimator.Query{Kind: estimator.Min}},
		{"PERCENTILE95", estimator.Query{Kind: estimator.Percentile, Pct: 0.95}},
		{"median_abs_dev", estimator.Query{Kind: estimator.UDF, FnName: "median_abs_dev",
			Fn: workload.UDFByName("median_abs_dev").Fn}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := diagnostic.DefaultConfig(len(s))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := diagnostic.Run(context.Background(), rng.New(uint64(i)), s, c.q,
					estimator.Bootstrap{K: 100}, cfg)
				if err != nil || len(res.PerSize) != 3 {
					b.Fatalf("per-size stats %d, err %v", len(res.PerSize), err)
				}
			}
		})
	}
}
