package diagnostic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

var (
	avgQ = estimator.Query{Kind: estimator.Avg}
	maxQ = estimator.Query{Kind: estimator.Max}
)

// evalOf is θ(S) as Run's callers hand it over: q on the values in their own
// order.
func evalOf(q estimator.Query, values []float64) func() float64 {
	return func() float64 { return q.Eval(values) }
}

func smallConfig(n int) Config {
	// The paper's p=100; subsample ladder scaled to the test sample size.
	return DefaultConfig(n, P)
}

func TestDefaultConfigFeasible(t *testing.T) {
	for _, n := range []int{10000, 100000, 1000000} {
		cfg := DefaultConfig(n, P)
		if err := cfg.Validate(n); err != nil {
			t.Errorf("DefaultConfig(%d, P) infeasible: %v", n, err)
		}
	}
}

// refLadder is the serving ladder as it was computed before Ladder gave it
// one home: plan.DefaultOptions, then core.planOptions at planning time, then
// exec.runDiagnostic on the filtered rows, each with its own copy.
func refLadder(sampleRows, filteredRows int) (sizes []int, diagnosed bool) {
	// plan.DefaultOptions: floor 4, p = 100.
	b3 := sampleRows / 200
	if b3 < 4 {
		b3 = 4
	}
	sizes = []int{b3 / 4, b3 / 2, b3}
	// core.planOptions: no diagnostic under 32 rows per largest subsample.
	b3 = sampleRows / (2 * 100)
	if b3 < 32 {
		return nil, false
	}
	sizes = []int{b3 / 4, b3 / 2, b3}
	// exec.runDiagnostic: shrink to the filtered rows; too few under 16.
	if sizes[len(sizes)-1]*100 > filteredRows {
		b3 := filteredRows / (2 * 100)
		if b3 < 16 {
			return nil, true
		}
		sizes = []int{b3 / 4, b3 / 2, b3}
	}
	return sizes, true
}

// TestLadderMatchesReference pins Ladder to the arithmetic it replaced, at
// the edges it decides and over a grid of (sample rows, filtered rows).
func TestLadderMatchesReference(t *testing.T) {
	cases := []struct {
		name             string
		sample, filtered int
		wantSizes        []int
		wantDiagnosed    bool
	}{
		{"sample under 6,400: undiagnosed", 6399, 6399, nil, false},
		{"sample at 6,400", 6400, 6400, []int{8, 16, 32}, true},
		{"filter leaves 3,199: too few rows", 50000, 3199, nil, true},
		{"filter leaves 3,200: smallest ladder", 50000, 3200, []int{4, 8, 16}, true},
		{"full-length masked SUM/COUNT column", 50000, 50000, []int{62, 125, 250}, true},
		{"half survives: sample's ladder kept", 50000, 25000, []int{62, 125, 250}, true},
		{"under half survives: ladder shrinks", 50000, 24999, []int{31, 62, 124}, true},
		{"EXPLAIN's golden ladder", 100000, 100000, []int{125, 250, 500}, true},
	}
	for _, c := range cases {
		sizes, diagnosed := Ladder(c.sample, c.filtered)
		if !slices.Equal(sizes, c.wantSizes) || diagnosed != c.wantDiagnosed {
			t.Errorf("%s: Ladder(%d, %d) = %v, %v; want %v, %v",
				c.name, c.sample, c.filtered, sizes, diagnosed, c.wantSizes, c.wantDiagnosed)
		}
	}
	for _, sample := range []int{0, 1, 799, 800, 3200, 6399, 6400, 6599, 6600, 10000, 50000, 100000, 1_000_001} {
		for _, filtered := range []int{0, 1, 3199, 3200, 3399, 3400, 6399, 6400, sample/2 - 1, sample / 2, sample/2 + 1, sample - 1, sample} {
			if filtered < 0 || filtered > sample {
				continue
			}
			sizes, diagnosed := Ladder(sample, filtered)
			wantSizes, wantDiagnosed := refLadder(sample, filtered)
			if !slices.Equal(sizes, wantSizes) || diagnosed != wantDiagnosed {
				t.Errorf("Ladder(%d, %d) = %v, %v; reference %v, %v",
					sample, filtered, sizes, diagnosed, wantSizes, wantDiagnosed)
			}
		}
	}
	// The paper figures' ladder: b₃ = n/2p with no floor but Validate's,
	// which fails every ladder under 4 rows at the top.
	for _, p := range []int{25, 50, 100} {
		for _, n := range []int{0, 3*2*p - 1, 4*2*p - 1, 4 * 2 * p, 6000, 20000} {
			b3 := n / (2 * p)
			ref := Config{SubsampleSizes: []int{b3 / 4, b3 / 2, b3}, P: p}
			got := DefaultConfig(n, p)
			if refOK := ref.Validate(n) == nil; refOK != (got.Validate(n) == nil) ||
				refOK && !reflect.DeepEqual(got, ref) {
				t.Errorf("DefaultConfig(%d, %d) = %+v, reference %+v", n, p, got, ref)
			}
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := DefaultConfig(100000, P)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few sizes", func(c *Config) { c.SubsampleSizes = []int{10} }},
		{"non-increasing", func(c *Config) { c.SubsampleSizes = []int{100, 100, 200} }},
		{"p too small", func(c *Config) { c.P = 1 }},
		{"overdrawn", func(c *Config) { c.SubsampleSizes = []int{100, 200, 5000} }},
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
	res, err := Run(context.Background(), rng.New(2), s, evalOf(avgQ, s), avgQ,
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
	res, err := Run(context.Background(), rng.New(4), s, evalOf(avgQ, s), avgQ,
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
	res, err := Run(context.Background(), rng.New(6), s, evalOf(maxQ, s), maxQ,
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
	res, err := Run(context.Background(), rng.New(8), s, evalOf(maxQ, s), maxQ,
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
	a, err := Run(context.Background(), rng.New(10), s, evalOf(avgQ, s), avgQ,
		estimator.ClosedForm{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), rng.New(10), s, evalOf(avgQ, s), avgQ,
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
		res, err := Run(context.Background(), rng.New(41), s, evalOf(q, s), q, estimator.Bootstrap{K: 50}, cfg)
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
	res, err := Run(context.Background(), rng.New(12), s, evalOf(avgQ, s), avgQ,
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
	cfg := DefaultConfig(1000000, P) // far too big for 100 rows
	if _, err := Run(context.Background(), rng.New(14), s, evalOf(avgQ, s), avgQ,
		estimator.ClosedForm{}, cfg); err == nil {
		t.Error("oversized config not rejected")
	}
}

func TestDiagnosticNoShuffleUsesGivenOrder(t *testing.T) {
	// A pathologically sorted sample violates the random-order assumption;
	// left unshuffled the subsamples are biased and the diagnostic should
	// notice (reject), while Run's shuffle repairs it.
	src := rng.New(15)
	s := make([]float64, 40000)
	for i := range s {
		s[i] = float64(i) // strictly increasing: disjoint chunks differ wildly
	}
	_ = src
	cfg := smallConfig(len(s))
	cfg.noShuffle = true
	resSorted, err := Run(context.Background(), rng.New(16), s, evalOf(avgQ, s), avgQ,
		estimator.ClosedForm{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resSorted.OK {
		t.Error("diagnostic accepted estimation on adversarially ordered subsamples")
	}
	cfg.noShuffle = false
	resShuffled, err := Run(context.Background(), rng.New(18), s, evalOf(avgQ, s), avgQ,
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
	if tl.total != 4 {
		t.Errorf("Total = %d", tl.total)
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
		res, err := Run(context.Background(), src, c.data, evalOf(c.q, c.data), c.q, c.est, cfg)
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
			tally.AccurateFrac(), tally.total)
	}
}

func BenchmarkDiagnosticClosedForm(b *testing.B) {
	s := gaussianSample(30, 100000, 10, 3)
	cfg := DefaultConfig(len(s), P)
	q := estimator.Query{Kind: estimator.Avg}
	src := rng.New(31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), src, s, evalOf(q, s), q, estimator.ClosedForm{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiagnosticBootstrap(b *testing.B) {
	s := gaussianSample(32, 100000, 10, 3)
	cfg := DefaultConfig(len(s), P)
	q := estimator.Query{Kind: estimator.Avg}
	src := rng.New(33)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), src, s, evalOf(q, s), q, estimator.Bootstrap{K: 100}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = sample.Shuffled // documents the dependency exercised above

// genericBootstrap is the bootstrap ξ as it ran before the sort-once walk and
// the reused scratch: the same two draws off src, every θ through
// Query.EvalWeighted with nothing offered (a UDF is a black box), a fresh
// deviation vector per interval.
type genericBootstrap struct{ k int }

func (genericBootstrap) Name() string                   { return "generic-bootstrap" }
func (genericBootstrap) AppliesTo(estimator.Query) bool { return true }
func (g genericBootstrap) Interval(src *rng.Source, values []float64, q estimator.Query, alpha float64) (estimator.Interval, error) {
	seed, stream := src.Uint64(), src.Uint64()
	ests, _ := kernel.Generic(context.Background(), values, g.k, seed, stream, 1, q.EvalWeighted)
	center := q.EvalWeighted(values, nil)
	return estimator.Interval{Center: center, HalfWidth: stats.SymmetricHalfWidth(ests, center, alpha)}, nil
}

// TestDiagnosticLadderMatchesGenericPath pins the ladder's fast paths —
// sort-once order statistics inside ξ, UDFs walking the offered order, the
// per-run estimate vectors overwritten in place — to the plain
// implementation: verdict, reason and every per-size statistic
// bit-identical, at every worker count, with the pools warm (second round)
// or cold.
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
		{Kind: estimator.UDF, FnName: "top_decile_mean", Fn: workload.UDFByName("top_decile_mean").Fn},
		{Kind: estimator.UDF, FnName: "frac_above_median_x2", Fn: workload.UDFByName("frac_above_median_x2").Fn},
	}
	for name, s := range samples {
		for _, q := range queries {
			cfg := smallConfig(len(s))
			want, err := Run(context.Background(), rng.New(52), s, evalOf(q, s), q, genericBootstrap{k: 30}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				for _, workers := range []int{1, 2, 8} {
					cfg.Workers = workers
					got, err := Run(context.Background(), rng.New(52), s, evalOf(q, s), q, estimator.Bootstrap{K: 30}, cfg)
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
						if w := want.PerSize[i]; !sameStats(g, w) {
							t.Errorf("%s %s workers=%d size %d: %+v, want %+v", name, q.Name(), workers, g.Size, g, w)
						}
					}
				}
			}
		}
	}
}

// runFullLadder is the diagnostic as it ran before it decided first: every
// size, smallest first, all p subsamples of each — a separate θ pass and ξ on
// every one — and only then Algorithm 1's conditions, in the paper's order.
// It is the reference the decide-first ladder is held to: same verdict, and
// the same statistics for every size the new ladder completes. (Its reject
// reasons are the old texts; it sets Cause only where it returns early.)
func runFullLadder(ctx context.Context, src *rng.Source, values []float64, q estimator.Query, est estimator.Estimator, cfg Config) (Result, error) {
	if err := cfg.Validate(len(values)); err != nil {
		return Result{}, err
	}
	if !est.AppliesTo(q) {
		return Result{OK: false, Cause: CauseNotApplicable, Reason: "estimator not applicable"}, nil
	}
	ce, _ := est.(estimator.ContextEstimator)
	done := ctx.Done()

	s := values
	if !cfg.noShuffle {
		s = sample.Shuffled(src, values)
	}
	// Best available estimate of θ(D), as Run's callers hand it over.
	t := q.Eval(values)
	// Base seed for the per-(size, subsample) streams.
	base := src.Uint64()

	res := Result{PerSize: make([]SizeStats, 0, len(cfg.SubsampleSizes))}
	// θ and ξ on each subsample, fanned across the worker pool. ests is the
	// truth ladder; widths is ξ's per-subsample half-width. Every size
	// overwrites all P entries, and a non-nil errs entry ends the run.
	ests := make([]float64, cfg.P)
	widths := make([]float64, cfg.P)
	errs := make([]error, cfg.P)
	for si, b := range cfg.SubsampleSizes {
		subs, err := sample.DisjointSubsamples(s, b, cfg.P)
		if err != nil {
			return Result{}, err
		}
		evalRange := func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				sub := subs[j]
				ests[j] = q.Eval(sub)
				sr := rng.NewWithStream(base, subStream(si, j))
				var iv estimator.Interval
				var err error
				if ce != nil {
					iv, err = ce.IntervalContext(ctx, sr, sub, q, estimator.ConfidenceLevel)
				} else {
					iv, err = est.Interval(sr, sub, q, estimator.ConfidenceLevel)
				}
				if err != nil {
					errs[j] = err
					continue
				}
				widths[j] = iv.HalfWidth
			}
		}
		w := cfg.workers()
		if w > cfg.P {
			w = cfg.P
		}
		if w <= 1 {
			evalRange(0, cfg.P)
		} else {
			var wg sync.WaitGroup
			chunk := (cfg.P + w - 1) / w
			for wi := 0; wi < w; wi++ {
				lo, hi := wi*chunk, (wi+1)*chunk
				if hi > cfg.P {
					hi = cfg.P
				}
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					evalRange(lo, hi)
				}(lo, hi)
			}
			wg.Wait()
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		for _, err := range errs {
			if err != nil {
				return Result{OK: false, Cause: CauseEstimatorFailed, Reason: "estimator failed: " + err.Error()}, nil
			}
		}
		res.SubsampleQueries += cfg.P // truth: one θ per subsample
		// ests is rewritten by the next size and not read again at this one.
		x := stats.SymmetricHalfWidthInPlace(ests, t, estimator.ConfidenceLevel)
		res.SubsampleQueries += cfg.P // ξ costs at least one θ-scale pass per subsample

		st := SizeStats{Size: b, TrueHalfWidth: x}
		switch {
		case math.IsNaN(x):
			// Truly uninformative truth at this size.
			st.Delta = math.NaN()
			st.Sigma = math.NaN()
			st.Pi = math.NaN()
		case x == 0:
			// Zero-width truth: every subsample estimate coincides with
			// θ(S) — common for MIN/MAX over columns with atoms at the
			// extremes. ξ agrees exactly when its intervals are also
			// (numerically) zero-width; anything wider disagrees.
			var m stats.Moments
			close := 0
			for _, w := range widths {
				m.Add(w)
				if w <= 1e-12 {
					close++
				}
			}
			if m.Mean() <= 1e-12 {
				st.Delta, st.Sigma = 0, 0
			} else {
				st.Delta, st.Sigma = math.Inf(1), math.Inf(1)
			}
			st.Pi = float64(close) / float64(cfg.P)
		default:
			var m stats.Moments
			close := 0
			for _, w := range widths {
				m.Add(w)
				if math.Abs(w-x)/x <= c3 {
					close++
				}
			}
			st.Delta = math.Abs(m.Mean()-x) / x
			st.Sigma = m.Stddev() / x
			st.Pi = float64(close) / float64(cfg.P)
		}
		res.PerSize = append(res.PerSize, st)
	}

	// Acceptance criteria.
	for i := 1; i < len(res.PerSize); i++ {
		cur, prev := res.PerSize[i], res.PerSize[i-1]
		if math.IsNaN(cur.Delta) || math.IsNaN(prev.Delta) {
			res.Reason = fmt.Sprintf("degenerate truth interval at size %d", cur.Size)
			return res, nil
		}
		if !(cur.Delta < prev.Delta || cur.Delta < c1) {
			res.Reason = fmt.Sprintf(
				"average deviation not improving at size %d (Δ=%.3f, prev %.3f, c1=%.2f)",
				cur.Size, cur.Delta, prev.Delta, c1)
			return res, nil
		}
		if !(cur.Sigma < prev.Sigma || cur.Sigma < c2) {
			res.Reason = fmt.Sprintf(
				"spread not improving at size %d (σ=%.3f, prev %.3f, c2=%.2f)",
				cur.Size, cur.Sigma, prev.Sigma, c2)
			return res, nil
		}
	}
	last := res.PerSize[len(res.PerSize)-1]
	if !(last.Pi >= rho) {
		res.Reason = fmt.Sprintf(
			"final proportion acceptable π=%.3f below ρ=%.2f at size %d",
			last.Pi, rho, last.Size)
		return res, nil
	}
	res.OK = true
	return res, nil
}

// failingConditions lists every Algorithm 1 condition a full ladder's
// evidence fails, not just the first the paper's order meets.
func failingConditions(per []SizeStats, cfg Config) map[Cause]bool {
	failing := map[Cause]bool{}
	for i, cur := range per {
		if math.IsNaN(cur.Delta) {
			failing[CauseDegenerateTruth] = true
		}
		if i == 0 {
			continue
		}
		prev := per[i-1]
		if !(cur.Delta < prev.Delta || cur.Delta < c1) {
			failing[CauseDelta] = true
		}
		if !(cur.Sigma < prev.Sigma || cur.Sigma < c2) {
			failing[CauseSigma] = true
		}
	}
	if !(per[len(per)-1].Pi >= rho) {
		failing[CausePi] = true
	}
	return failing
}

// sameStats compares two sizes' statistics as bits: the ladder's NaN and ±0
// cases are equal to themselves.
func sameStats(a, b SizeStats) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Size == b.Size && same(a.TrueHalfWidth, b.TrueHalfWidth) &&
		same(a.Delta, b.Delta) && same(a.Sigma, b.Sigma) && same(a.Pi, b.Pi)
}

// sameResult is reflect.DeepEqual with floats compared as bits.
func sameResult(a, b Result) bool {
	if a.OK != b.OK || a.Cause != b.Cause || a.Reason != b.Reason || a.RungsRun != b.RungsRun ||
		a.DecidedAfter != b.DecidedAfter || a.SubsampleQueries != b.SubsampleQueries ||
		len(a.PerSize) != len(b.PerSize) {
		return false
	}
	for i := range a.PerSize {
		if !sameStats(a.PerSize[i], b.PerSize[i]) {
			return false
		}
	}
	return true
}

// TestDecideFirstMatchesFullLadder holds the decide-first ladder to the full
// one over aggregates × distributions × seeds × ξ: the verdict is always the
// full ladder's; a reject names a condition the full evidence does fail;
// every size the new ladder completes carries the full ladder's statistics
// bit for bit — all of them whenever it ran to the bottom; and the whole
// Result, where it stopped included, is the same at 1, 2 and 8 workers.
func TestDecideFirstMatchesFullLadder(t *testing.T) {
	udf := func(name string) estimator.Query {
		return estimator.Query{Kind: estimator.UDF, FnName: name, Fn: workload.UDFByName(name).Fn}
	}
	queries := []estimator.Query{
		{Kind: estimator.Avg}, {Kind: estimator.Sum, PopN: 1_000_000},
		{Kind: estimator.Min}, {Kind: estimator.Max},
		{Kind: estimator.Percentile, Pct: 0.5}, {Kind: estimator.Percentile, Pct: 0.95},
		udf("median_abs_dev"), udf("trimmed_mean_5"), udf("frac_above_median_x2"),
	}
	dists := []workload.DataDist{workload.Gaussian, workload.LogNormalMild, workload.ParetoTail, workload.Spiky}
	xis := []estimator.Estimator{estimator.ClosedForm{UseStudentT: true}, estimator.Bootstrap{K: 40}}
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	ctx := context.Background()
	var accepts, early, byCause = 0, 0, map[Cause]int{}
	for _, dist := range dists {
		for seed := 0; seed < seeds; seed++ {
			s := workload.GenerateColumn(rng.New(uint64(1000*int(dist)+seed)), dist, 8000)
			for _, q := range queries {
				for _, xi := range xis {
					cfg := DefaultConfig(len(s), P)
					id := dist.String() + " " + q.Name() + " " + xi.Name()
					want, err := runFullLadder(ctx, rng.New(uint64(seed)), s, q, xi, cfg)
					if err != nil {
						t.Fatalf("%s seed %d: reference: %v", id, seed, err)
					}
					var first Result
					for _, workers := range []int{1, 2, 8} {
						cfg.Workers = workers
						got, err := Run(ctx, rng.New(uint64(seed)), s, evalOf(q, s), q, xi, cfg)
						if err != nil {
							t.Fatalf("%s seed %d workers %d: %v", id, seed, workers, err)
						}
						if workers == 1 {
							first = got
						} else if !sameResult(got, first) {
							t.Fatalf("%s seed %d: workers %d gives %+v, serial %+v", id, seed, workers, got, first)
						}
					}
					got := first
					if got.OK != want.OK {
						t.Fatalf("%s seed %d: verdict %v (%s), full ladder %v (%s)",
							id, seed, got.OK, got.Reason, want.OK, want.Reason)
					}
					if (got.Cause == CauseNone) != got.OK || (got.Reason == "") != got.OK {
						t.Fatalf("%s seed %d: OK=%v with cause %q, reason %q", id, seed, got.OK, got.Cause, got.Reason)
					}
					if len(want.PerSize) == 0 { // ξ does not apply: no ladder to compare
						if got.Cause != want.Cause || got.RungsRun != 0 || len(got.PerSize) != 0 {
							t.Fatalf("%s seed %d: %+v, full ladder %+v", id, seed, got, want)
						}
						byCause[got.Cause]++
						continue
					}
					if !got.OK && !failingConditions(want.PerSize, cfg)[got.Cause] {
						t.Fatalf("%s seed %d: rejected on %s, which the full evidence passes: %+v",
							id, seed, got.Cause, want.PerSize)
					}
					// Completed sizes are a suffix of the ladder.
					skipped := len(want.PerSize) - len(got.PerSize)
					for i, st := range got.PerSize {
						if !sameStats(st, want.PerSize[skipped+i]) {
							t.Fatalf("%s seed %d: size %d: %+v, full ladder %+v",
								id, seed, st.Size, st, want.PerSize[skipped+i])
						}
					}
					ranAll := xiEvaluations(got, cfg.P) == len(cfg.SubsampleSizes)*cfg.P
					if ranAll != (skipped == 0) || (ranAll && got.SubsampleQueries != want.SubsampleQueries) {
						t.Fatalf("%s seed %d: %d ξ evaluations, %d sizes complete, %d subsample queries (full ladder %d)",
							id, seed, xiEvaluations(got, cfg.P), len(got.PerSize), got.SubsampleQueries, want.SubsampleQueries)
					}
					if got.OK && !ranAll {
						t.Fatalf("%s seed %d: accepted on partial evidence: %+v", id, seed, got)
					}
					if got.OK {
						accepts++
					} else {
						byCause[got.Cause]++
						if !ranAll {
							early++
						}
					}
				}
			}
		}
	}
	// The matrix must keep exercising both verdicts, the early exits and
	// each of Algorithm 1's conditions (the short matrix has no σ reject).
	if accepts == 0 || early == 0 || byCause[CausePi] == 0 || byCause[CauseDelta] == 0 ||
		byCause[CauseSigma] == 0 && !testing.Short() || byCause[CauseNotApplicable] == 0 {
		t.Errorf("matrix lost its coverage: %d accepts, %d early rejects, by cause %v", accepts, early, byCause)
	}
	t.Logf("%d accepts, %d early rejects, rejects by cause %v", accepts, early, byCause)
}

// failingAt is a ξ that errors on subsamples holding a marked value.
type failingAt struct{ estimator.Bootstrap }

func (f failingAt) IntervalContext(ctx context.Context, src *rng.Source, values []float64, q estimator.Query, alpha float64) (estimator.Interval, error) {
	if slices.Contains(values, -12345) {
		return estimator.Interval{}, errors.New("poisoned subsample")
	}
	return f.Bootstrap.IntervalContext(ctx, src, values, q, alpha)
}

// TestDecideFirstEstimatorFailure: a ξ error rejects, as it always did, when
// it falls in the prefix the ladder evaluates — wherever it is on an
// otherwise accepted query.
func TestDecideFirstEstimatorFailure(t *testing.T) {
	s := gaussianSample(3, 40000, 100, 15)
	cfg := smallConfig(len(s))
	cfg.noShuffle = true
	q := estimator.Query{Kind: estimator.Avg}
	if res, err := Run(context.Background(), rng.New(71), s, evalOf(q, s), q, failingAt{estimator.Bootstrap{K: 50}}, cfg); err != nil || !res.OK {
		t.Fatalf("clean sample: %+v, %v", res, err)
	}
	for _, at := range []int{0, 40 * cfg.SubsampleSizes[2], len(s)/2 - 1} {
		poisoned := append([]float64(nil), s...)
		poisoned[at] = -12345
		want, err := runFullLadder(context.Background(), rng.New(71), poisoned, q, failingAt{estimator.Bootstrap{K: 50}}, cfg)
		if err != nil || want.Cause != CauseEstimatorFailed {
			t.Fatalf("row %d: reference %+v, %v", at, want, err)
		}
		for _, workers := range []int{1, 8} {
			cfg.Workers = workers
			got, err := Run(context.Background(), rng.New(71), poisoned, evalOf(q, poisoned), q, failingAt{estimator.Bootstrap{K: 50}}, cfg)
			if err != nil || got.OK || got.Cause != CauseEstimatorFailed || got.Reason != want.Reason {
				t.Errorf("row %d workers %d: %+v, %v; full ladder %+v", at, workers, got, err, want)
			}
		}
	}
}

// cancelling is a bootstrap ξ that cancels the run's context on its n-th
// call and carries on, as a client hanging up mid-diagnosis would.
type cancelling struct {
	estimator.Bootstrap
	calls  *atomic.Int32
	on     int32
	cancel context.CancelFunc
}

func (c cancelling) IntervalContext(ctx context.Context, src *rng.Source, values []float64, q estimator.Query, alpha float64) (estimator.Interval, error) {
	if c.calls.Add(1) == c.on {
		c.cancel()
	}
	return c.Bootstrap.IntervalContext(ctx, src, values, q, alpha)
}

// TestDecideFirstCancellation: a context cancelled in the middle of a batch
// — the first one, a later one, one at a lower size — ends the run with the
// context's error, within that batch, and with no worker goroutine left.
func TestDecideFirstCancellation(t *testing.T) {
	s := gaussianSample(3, 40000, 100, 15) // accepted: the ladder reaches every size
	q := estimator.Query{Kind: estimator.Avg}
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		for _, on := range []int32{5, xiBatch + 3, 100 + xiBatch + 1} {
			ctx, cancel := context.WithCancel(context.Background())
			cfg := smallConfig(len(s))
			cfg.Workers = workers
			xi := cancelling{estimator.Bootstrap{K: 50}, new(atomic.Int32), on, cancel}
			res, err := Run(ctx, rng.New(4), s, evalOf(q, s), q, xi, cfg)
			cancel()
			if !errors.Is(err, context.Canceled) || res.OK || res.PerSize != nil {
				t.Errorf("workers %d, cancelled on call %d: %+v, %v", workers, on, res, err)
			}
			if calls, limit := xi.calls.Load(), (on+xiBatch-1)/xiBatch*xiBatch; calls > limit {
				t.Errorf("workers %d, cancelled on call %d: ξ ran %d times, want <= %d", workers, on, calls, limit)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked: %d before, %d after", base, n)
	}
}

// xiEvaluations is how many subsamples ξ was run on — p per size on a full
// ladder.
func xiEvaluations(r Result, p int) int {
	if r.RungsRun == 0 {
		return 0
	}
	return (r.RungsRun-1)*p + r.DecidedAfter
}

// TestMinFilteredRowsIsLaddersFloor: on any sample Ladder diagnoses, it
// finds a ladder in MinFilteredRows filtered rows and none in one fewer.
func TestMinFilteredRowsIsLaddersFloor(t *testing.T) {
	for _, n := range []int{6400, 12288, 50000, 1 << 20} {
		if sizes, diagnosed := Ladder(n, MinFilteredRows-1); sizes != nil || !diagnosed {
			t.Errorf("Ladder(%d, %d) = %v, %v; want nil, true", n, MinFilteredRows-1, sizes, diagnosed)
		}
		if sizes, _ := Ladder(n, MinFilteredRows); sizes == nil {
			t.Errorf("Ladder(%d, %d) found no ladder", n, MinFilteredRows)
		}
	}
}
