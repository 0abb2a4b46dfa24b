package diagnostic

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/workload"
)

func gaussianSample(seed uint64, n int, mu, sigma float64) []float64 {
	src := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mu + sigma*src.NormFloat64()
	}
	return xs
}

func paretoSample(seed uint64, n int, alpha float64) []float64 {
	src := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.Pareto(1, alpha)
	}
	return xs
}

func smallConfig(n int) Config {
	// The paper's p=100; subsample ladder scaled to the test sample size.
	return DefaultConfig(n)
}

func TestDefaultConfigFeasible(t *testing.T) {
	for _, n := range []int{10000, 100000, 1000000} {
		cfg := DefaultConfig(n)
		if err := cfg.Validate(n); err != nil {
			t.Errorf("DefaultConfig(%d) infeasible: %v", n, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := DefaultConfig(100000)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few sizes", func(c *Config) { c.SubsampleSizes = []int{10} }},
		{"non-increasing", func(c *Config) { c.SubsampleSizes = []int{100, 100, 200} }},
		{"p too small", func(c *Config) { c.P = 1 }},
		{"overdrawn", func(c *Config) { c.SubsampleSizes = []int{100, 200, 5000} }},
		{"bad alpha", func(c *Config) { c.Alpha = 1.5 }},
		{"bad rho", func(c *Config) { c.Rho = -0.1 }},
	}
	for _, c := range cases {
		cfg := good
		cfg.SubsampleSizes = append([]int(nil), good.SubsampleSizes...)
		c.mutate(&cfg)
		if err := cfg.Validate(100000); err == nil {
			t.Errorf("%s: Validate accepted a bad config", c.name)
		}
	}
}

func TestDiagnosticAcceptsClosedFormOnGaussianAvg(t *testing.T) {
	s := gaussianSample(1, 40000, 100, 15)
	cfg := smallConfig(len(s))
	res, err := Run(context.Background(), rng.New(2), s, estimator.Query{Kind: estimator.Avg},
		estimator.ClosedForm{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Errorf("diagnostic rejected closed-form AVG on Gaussian data: %s", res.Reason)
	}
	if len(res.PerSize) != 3 {
		t.Fatalf("per-size stats = %d", len(res.PerSize))
	}
	if res.SubsampleQueries == 0 {
		t.Error("subsample query count not recorded")
	}
}

func TestDiagnosticAcceptsBootstrapOnGaussianAvg(t *testing.T) {
	s := gaussianSample(3, 40000, 100, 15)
	cfg := smallConfig(len(s))
	res, err := Run(context.Background(), rng.New(4), s, estimator.Query{Kind: estimator.Avg},
		estimator.Bootstrap{K: 50}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Errorf("diagnostic rejected bootstrap AVG on Gaussian data: %s", res.Reason)
	}
}

func TestDiagnosticRejectsBootstrapOnHeavyTailMax(t *testing.T) {
	// MAX over Pareto(1.1): the canonical failure case — estimates at
	// small subsample sizes neither converge nor concentrate.
	s := paretoSample(5, 40000, 1.1)
	cfg := smallConfig(len(s))
	res, err := Run(context.Background(), rng.New(6), s, estimator.Query{Kind: estimator.Max},
		estimator.Bootstrap{K: 50}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("diagnostic accepted bootstrap MAX on heavy-tailed data")
	}
	if res.Reason == "" {
		t.Error("rejection must carry a reason")
	}
}

func TestDiagnosticRejectsNotApplicableEstimator(t *testing.T) {
	s := gaussianSample(7, 40000, 0, 1)
	cfg := smallConfig(len(s))
	res, err := Run(context.Background(), rng.New(8), s, estimator.Query{Kind: estimator.Max},
		estimator.ClosedForm{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("diagnostic accepted a not-applicable estimator")
	}
	if !strings.Contains(res.Reason, "not applicable") {
		t.Errorf("reason = %q", res.Reason)
	}
}

func TestDiagnosticDeterministicUnderSeed(t *testing.T) {
	s := gaussianSample(9, 20000, 5, 2)
	cfg := smallConfig(len(s))
	a, err := Run(context.Background(), rng.New(10), s, estimator.Query{Kind: estimator.Avg},
		estimator.ClosedForm{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), rng.New(10), s, estimator.Query{Kind: estimator.Avg},
		estimator.ClosedForm{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.OK != b.OK || len(a.PerSize) != len(b.PerSize) {
		t.Fatal("diagnostic not deterministic under a fixed seed")
	}
	for i := range a.PerSize {
		if a.PerSize[i] != b.PerSize[i] {
			t.Fatal("per-size statistics differ across identical runs")
		}
	}
}

func TestDiagnosticWorkerCountInvariance(t *testing.T) {
	// The verdict and every per-size statistic must be byte-identical at
	// any worker count: each (size, subsample) pair owns an RNG stream, so
	// the bootstrap draws inside ξ never depend on goroutine scheduling.
	s := gaussianSample(40, 40000, 100, 15)
	q := estimator.Query{Kind: estimator.Avg}
	run := func(workers int) Result {
		cfg := smallConfig(len(s))
		cfg.Workers = workers
		res, err := Run(context.Background(), rng.New(41), s, q, estimator.Bootstrap{K: 50}, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	if !base.OK {
		t.Fatalf("serial diagnostic rejected Gaussian AVG: %s", base.Reason)
	}
	for _, w := range []int{4, 8} {
		if got := run(w); !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: result differs from serial run\nserial: %+v\ngot:    %+v",
				w, base, got)
		}
	}
}

func TestDiagnosticPerSizeStatsShrinkOnNiceData(t *testing.T) {
	s := gaussianSample(11, 80000, 50, 5)
	cfg := smallConfig(len(s))
	res, err := Run(context.Background(), rng.New(12), s, estimator.Query{Kind: estimator.Avg},
		estimator.ClosedForm{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.PerSize[len(res.PerSize)-1]
	if math.IsNaN(last.Delta) || last.Delta > 0.25 {
		t.Errorf("final Δ = %v, want small on Gaussian AVG", last.Delta)
	}
	if last.Pi < 0.9 {
		t.Errorf("final π = %v, want >= 0.9", last.Pi)
	}
	// True half-widths must shrink as subsample size grows (~1/√b).
	for i := 1; i < len(res.PerSize); i++ {
		if res.PerSize[i].TrueHalfWidth >= res.PerSize[i-1].TrueHalfWidth {
			t.Errorf("true half-width not shrinking: %v", res.PerSize)
		}
	}
}

func TestDiagnosticValidatesConfig(t *testing.T) {
	s := gaussianSample(13, 100, 0, 1)
	cfg := DefaultConfig(1000000) // far too big for 100 rows
	if _, err := Run(context.Background(), rng.New(14), s, estimator.Query{Kind: estimator.Avg},
		estimator.ClosedForm{}, cfg); err == nil {
		t.Error("oversized config not rejected")
	}
}

func TestDiagnosticNoShuffleUsesGivenOrder(t *testing.T) {
	// A pathologically sorted sample violates the random-order assumption;
	// with Shuffle=false the subsamples are biased and the diagnostic
	// should notice (reject), while Shuffle=true repairs it.
	src := rng.New(15)
	s := make([]float64, 40000)
	for i := range s {
		s[i] = float64(i) // strictly increasing: disjoint chunks differ wildly
	}
	_ = src
	cfg := smallConfig(len(s))
	cfg.Shuffle = false
	resSorted, err := Run(context.Background(), rng.New(16), s, estimator.Query{Kind: estimator.Avg},
		estimator.ClosedForm{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resSorted.OK {
		t.Error("diagnostic accepted estimation on adversarially ordered subsamples")
	}
	cfg.Shuffle = true
	resShuffled, err := Run(context.Background(), rng.New(18), s, estimator.Query{Kind: estimator.Avg},
		estimator.ClosedForm{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resShuffled.OK {
		t.Errorf("shuffling should repair ordering bias: %s", resShuffled.Reason)
	}
}

func TestAssessMatrix(t *testing.T) {
	cases := []struct {
		diag, truth bool
		want        Outcome
	}{
		{true, true, TrueAccept},
		{false, false, TrueReject},
		{true, false, FalsePositive},
		{false, true, FalseNegative},
	}
	for _, c := range cases {
		if got := Assess(c.diag, c.truth); got != c.want {
			t.Errorf("Assess(%v, %v) = %v, want %v", c.diag, c.truth, got, c.want)
		}
	}
}

func TestTally(t *testing.T) {
	var tl Tally
	tl.Add(TrueAccept)
	tl.Add(TrueAccept)
	tl.Add(TrueReject)
	tl.Add(FalsePositive)
	if tl.Total() != 4 {
		t.Errorf("Total = %d", tl.Total())
	}
	if got := tl.Frac(TrueAccept); got != 0.5 {
		t.Errorf("Frac(TrueAccept) = %v", got)
	}
	if got := tl.AccurateFrac(); got != 0.75 {
		t.Errorf("AccurateFrac = %v", got)
	}
	var empty Tally
	if empty.Frac(TrueAccept) != 0 {
		t.Error("empty tally should report 0")
	}
}

func TestOutcomeString(t *testing.T) {
	if TrueAccept.String() != "accurate-approximation" ||
		FalsePositive.String() != "false-positive" ||
		FalseNegative.String() != "false-negative" ||
		TrueReject.String() != "correct-rejection" {
		t.Error("outcome names wrong")
	}
}

// End-to-end accuracy smoke test in the spirit of Fig. 4: over a small
// batch of easy and hard queries, the diagnostic should be right most of
// the time.
func TestDiagnosticAccuracySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy smoke test is slow")
	}
	type workloadCase struct {
		data []float64
		q    estimator.Query
		est  estimator.Estimator
	}
	cases := []workloadCase{
		{gaussianSample(20, 40000, 100, 10), estimator.Query{Kind: estimator.Avg}, estimator.ClosedForm{}},
		{gaussianSample(21, 40000, 100, 10), estimator.Query{Kind: estimator.Sum, PopN: 400000}, estimator.ClosedForm{}},
		{gaussianSample(22, 40000, 100, 10), estimator.Query{Kind: estimator.Avg}, estimator.Bootstrap{K: 40}},
		{paretoSample(23, 40000, 1.1), estimator.Query{Kind: estimator.Max}, estimator.Bootstrap{K: 40}},
		{paretoSample(24, 40000, 1.05), estimator.Query{Kind: estimator.Max}, estimator.Bootstrap{K: 40}},
	}
	var tally Tally
	src := rng.New(25)
	for i, c := range cases {
		cfg := smallConfig(len(c.data))
		res, err := Run(context.Background(), src, c.data, c.q, c.est, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// Ground truth via the §3 protocol on a fresh "population" — here
		// the sample itself serves as the finite population.
		evalCfg := estimator.EvalConfig{SampleSize: 2000, Trials: 30, TruthP: 40,
			Alpha: 0.95, DeltaTol: 0.2, FailFrac: 0.05}
		works := estimator.EstimationWorks(src, c.data, c.q, c.est, evalCfg)
		tally.Add(Assess(res.OK, works))
	}
	if tally.AccurateFrac() < 0.6 {
		t.Errorf("diagnostic accuracy = %v over %d cases; want >= 0.6",
			tally.AccurateFrac(), tally.Total())
	}
}

func BenchmarkDiagnosticClosedForm(b *testing.B) {
	s := gaussianSample(30, 100000, 10, 3)
	cfg := DefaultConfig(len(s))
	q := estimator.Query{Kind: estimator.Avg}
	src := rng.New(31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), src, s, q, estimator.ClosedForm{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiagnosticBootstrap(b *testing.B) {
	s := gaussianSample(32, 100000, 10, 3)
	cfg := DefaultConfig(len(s))
	q := estimator.Query{Kind: estimator.Avg}
	src := rng.New(33)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), src, s, q, estimator.Bootstrap{K: 100}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = sample.Shuffled // documents the dependency exercised above

// genericBootstrap is the bootstrap ξ as it ran before the sort-once walk and
// the reused scratch: the same two draws off src, every θ through
// Query.EvalWeighted, a fresh deviation vector per interval.
type genericBootstrap struct{ k int }

func (genericBootstrap) Name() string                   { return "generic-bootstrap" }
func (genericBootstrap) AppliesTo(estimator.Query) bool { return true }
func (g genericBootstrap) Interval(src *rng.Source, values []float64, q estimator.Query, alpha float64) (estimator.Interval, error) {
	seed, stream := src.Uint64(), src.Uint64()
	ests, _ := kernel.Generic(context.Background(), values, g.k, seed, stream, 1, q.EvalWeighted)
	center := q.Eval(values)
	return estimator.Interval{Center: center, HalfWidth: stats.SymmetricHalfWidth(ests, center, alpha)}, nil
}

// TestDiagnosticLadderMatchesGenericPath pins the ladder's fast paths —
// sort-once order statistics inside ξ, pooled UDF scratch, the per-run
// estimate vectors overwritten in place — to the plain implementation:
// verdict, reason and every per-size statistic bit-identical, at every
// worker count, with the pools warm (second round) or cold.
func TestDiagnosticLadderMatchesGenericPath(t *testing.T) {
	samples := map[string][]float64{
		"gaussian": gaussianSample(50, 20000, 100, 15),
		"pareto":   paretoSample(51, 30000, 1.1),
	}
	if testing.Short() {
		delete(samples, "gaussian")
	}
	queries := []estimator.Query{
		{Kind: estimator.Min}, {Kind: estimator.Max},
		{Kind: estimator.Percentile, Pct: 0.5}, {Kind: estimator.Percentile, Pct: 0.95},
		{Kind: estimator.UDF, FnName: "median_abs_dev", Fn: workload.UDFByName("median_abs_dev").Fn},
		{Kind: estimator.UDF, FnName: "trimmed_mean_5", Fn: workload.UDFByName("trimmed_mean_5").Fn},
	}
	for name, s := range samples {
		for _, q := range queries {
			cfg := smallConfig(len(s))
			want, err := Run(context.Background(), rng.New(52), s, q, genericBootstrap{k: 30}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				for _, workers := range []int{1, 2, 8} {
					cfg.Workers = workers
					got, err := Run(context.Background(), rng.New(52), s, q, estimator.Bootstrap{K: 30}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					// DeepEqual compares floats with ==; the ladder's NaN
					// and ±0 cases are compared as bits below.
					if got.OK != want.OK || got.Reason != want.Reason ||
						got.SubsampleQueries != want.SubsampleQueries || len(got.PerSize) != len(want.PerSize) {
						t.Fatalf("%s %s workers=%d: %+v, want %+v", name, q.Name(), workers, got, want)
					}
					for i, g := range got.PerSize {
						w := want.PerSize[i]
						for f, pair := range [][2]float64{{g.TrueHalfWidth, w.TrueHalfWidth},
							{g.Delta, w.Delta}, {g.Sigma, w.Sigma}, {g.Pi, w.Pi}} {
							if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
								t.Errorf("%s %s workers=%d size %d field %d: %v, want %v",
									name, q.Name(), workers, g.Size, f, pair[0], pair[1])
							}
						}
					}
				}
			}
		}
	}
}
