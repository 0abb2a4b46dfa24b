package protocol

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/stats"
)

func gaussianData(seed uint64, n int, mu, sigma float64) []float64 {
	src := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mu + sigma*src.NormFloat64()
	}
	return xs
}

func paretoData(seed uint64, n int, alpha float64) []float64 {
	src := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.Pareto(1, alpha)
	}
	return xs
}

// unitRange is n rows of 0 with one 1: the sample range of [0, 1], which is
// what the large-deviation bounds are sized by, at zero sample variance.
func unitRange(n int) []float64 {
	xs := make([]float64, n)
	xs[n-1] = 1
	return xs
}

var avgQ = estimator.Query{Kind: estimator.Avg}

// paperEvalConfig is §3's protocol: 100 samples, δ tolerance 0.2, failure
// when ≥5% of samples deviate, 95% confidence intervals.
func paperEvalConfig(sampleSize int) EvalConfig {
	return EvalConfig{SampleSize: sampleSize, Trials: 100, TruthP: 100, Alpha: 0.95, DeltaTol: 0.2, FailFrac: 0.05}
}

// --- Sampling and the figures' ladder ---

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestWithReplacementShapeAndSupport(t *testing.T) {
	src := rng.New(1)
	xs := seq(100)
	s := WithReplacement(src, xs, 1000)
	if len(s) != 1000 {
		t.Fatalf("len = %d", len(s))
	}
	for _, v := range s {
		if v < 0 || v > 99 {
			t.Fatalf("sampled value %v outside support", v)
		}
	}
}

func TestWithReplacementMeanConverges(t *testing.T) {
	src := rng.New(2)
	xs := seq(1000) // mean 499.5
	s := WithReplacement(src, xs, 200000)
	if m := stats.Mean(s); math.Abs(m-499.5) > 5 {
		t.Fatalf("sample mean %v too far from 499.5", m)
	}
}

func TestDiagnosticConfigFeasible(t *testing.T) {
	for _, n := range []int{10000, 100000, 1000000} {
		cfg := DiagnosticConfig(n, diagnostic.P)
		if err := cfg.Validate(n); err != nil {
			t.Errorf("DiagnosticConfig(%d, P) infeasible: %v", n, err)
		}
	}
}

// TestDiagnosticConfigMatchesReference pins the figures' ladder to the
// arithmetic they ran before it had one home: b₃ = n/2p with no floor but
// Validate's, which fails every ladder under 4 rows at the top. The p are
// the ablation's three and Quick's and Full's DiagP.
func TestDiagnosticConfigMatchesReference(t *testing.T) {
	for _, p := range []int{25, 50, 100} {
		for _, n := range []int{0, 3*2*p - 1, 4*2*p - 1, 4 * 2 * p, 6000, 20000, 60000} {
			b3 := n / (2 * p)
			ref := diagnostic.Config{SubsampleSizes: []int{b3 / 4, b3 / 2, b3}, P: p}
			got := DiagnosticConfig(n, p)
			if refOK := ref.Validate(n) == nil; refOK != (got.Validate(n) == nil) ||
				refOK && !reflect.DeepEqual(got, ref) {
				t.Errorf("DiagnosticConfig(%d, %d) = %+v, reference %+v", n, p, got, ref)
			}
		}
	}
}

// --- Truth and δ ---

func TestDeltaSignConvention(t *testing.T) {
	truth := estimator.Interval{Center: 0, HalfWidth: 1}
	// Estimate twice as wide: pessimistic, δ = +1.
	if d := Delta(estimator.Interval{Center: 0, HalfWidth: 2}, truth); d != 1 {
		t.Errorf("wide delta = %v, want 1", d)
	}
	// Estimate half as wide: optimistic, δ = −0.5.
	if d := Delta(estimator.Interval{Center: 0, HalfWidth: 0.5}, truth); d != -0.5 {
		t.Errorf("narrow delta = %v, want -0.5", d)
	}
	if !math.IsNaN(Delta(estimator.Interval{Center: 0, HalfWidth: 1}, estimator.Interval{})) {
		t.Error("zero truth width should give NaN")
	}
}

func TestComputeTruth(t *testing.T) {
	src := rng.New(18)
	pop := gaussianData(19, 50000, 10, 2)
	truth := ComputeTruth(src, pop, avgQ, 500, 200, 0.95)
	if truth.Answer != avgQ.Eval(pop) {
		t.Error("truth answer wrong")
	}
	if len(truth.Estimates) != 200 {
		t.Error("truth estimate count wrong")
	}
	// True half width ≈ z * σ/√n.
	var m stats.Moments
	m.AddAll(pop)
	want := 1.96 * m.Stddev() / math.Sqrt(500)
	if truth.Interval.HalfWidth < 0.5*want || truth.Interval.HalfWidth > 1.8*want {
		t.Errorf("true half-width = %v, want ~%v", truth.Interval.HalfWidth, want)
	}
	// The realized sampling errors θ(Sᵢ) − θ(D) (§2.1's ε) center on zero.
	errs := make([]float64, len(truth.Estimates))
	for i, e := range truth.Estimates {
		errs[i] = e - truth.Answer
	}
	if m := stats.Mean(errs); math.Abs(m) > 4*want {
		t.Errorf("sampling errors not centered: %v", m)
	}
}

// --- Large deviation ---

func TestHoeffdingIsPessimistic(t *testing.T) {
	xs := gaussianData(13, 1000, 0.5, 0.1)
	h, err := LargeDeviation{Bound: Hoeffding}.Interval(nil, xs, avgQ, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	c, err := estimator.ClosedForm{}.Interval(nil, xs, avgQ, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// With σ = 0.1 and a sample range of ~0.65, Hoeffding is ~4x wider
	// than the CLT interval; assert at least 2x.
	if h.HalfWidth < 2*c.HalfWidth {
		t.Errorf("Hoeffding %v not clearly wider than closed form %v",
			h.HalfWidth, c.HalfWidth)
	}
}

func TestHoeffdingKnownValue(t *testing.T) {
	iv, err := LargeDeviation{Bound: Hoeffding}.Interval(nil, unitRange(100), avgQ, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(math.Log(2/0.05) / 200.0)
	if math.Abs(iv.HalfWidth-want) > 1e-12 {
		t.Errorf("Hoeffding half-width = %v, want %v", iv.HalfWidth, want)
	}
}

func TestBernsteinTighterThanHoeffdingOnLowVariance(t *testing.T) {
	// σ tiny relative to range: Bernstein should win.
	xs := gaussianData(14, 10000, 0.5, 0.01)
	h, _ := LargeDeviation{Bound: Hoeffding}.Interval(nil, xs, avgQ, 0.95)
	b, _ := LargeDeviation{Bound: Bernstein}.Interval(nil, xs, avgQ, 0.95)
	if b.HalfWidth >= h.HalfWidth {
		t.Errorf("Bernstein %v not tighter than Hoeffding %v on low-variance data",
			b.HalfWidth, h.HalfWidth)
	}
}

func TestLargeDeviationGuaranteedCoverage(t *testing.T) {
	// Hoeffding coverage must be ≥ α (in practice ≈ 1).
	src := rng.New(16)
	pop := make([]float64, 50000)
	for i := range pop {
		pop[i] = src.Float64() // uniform [0,1)
	}
	truthMean := avgQ.Eval(pop)
	covered := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		s := WithReplacement(src, pop, 200)
		iv, err := LargeDeviation{Bound: Hoeffding}.Interval(nil, s, avgQ, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(truthMean) {
			covered++
		}
	}
	if covered < trials*95/100 {
		t.Errorf("Hoeffding coverage %d/%d below nominal", covered, trials)
	}
}

func TestLargeDeviationScaledSum(t *testing.T) {
	xs := gaussianData(17, 100, 0.5, 0.1)
	sum := estimator.Query{Kind: estimator.Sum, PopN: 1000}
	a, _ := LargeDeviation{Bound: Hoeffding}.Interval(nil, xs, avgQ, 0.95)
	s, _ := LargeDeviation{Bound: Hoeffding}.Interval(nil, xs, sum, 0.95)
	// SUM bound = AVG bound × scale × n = ×1000.
	if math.Abs(s.HalfWidth/a.HalfWidth-1000) > 1e-6 {
		t.Errorf("SUM/AVG bound ratio = %v, want 1000", s.HalfWidth/a.HalfWidth)
	}
}

func TestLargeDeviationNotApplicable(t *testing.T) {
	if _, err := (LargeDeviation{}).Interval(nil, []float64{1}, estimator.Query{Kind: estimator.Max}, 0.95); err == nil {
		t.Error("MAX should have no large-deviation bound")
	}
	if _, err := (LargeDeviation{}).Interval(nil, nil, avgQ, 0.95); err == nil {
		t.Error("empty sample should error")
	}
	if !largeDeviationApplicable(avgQ) || largeDeviationApplicable(estimator.Query{Kind: estimator.Max}) {
		t.Error("large-deviation applicability wrong")
	}
}

func TestBoundAndVerdictStrings(t *testing.T) {
	if Hoeffding.String() != "hoeffding" || Bernstein.String() != "bernstein" {
		t.Error("bound names wrong")
	}
	if Correct.String() != "correct" || Optimistic.String() != "optimistic" ||
		Pessimistic.String() != "pessimistic" || NotApplicable.String() != "not-applicable" {
		t.Error("verdict names wrong")
	}
	if (LargeDeviation{Bound: Bernstein}).Name() != "large-deviation/bernstein" {
		t.Error("estimator name wrong")
	}
}

// Property: Hoeffding width shrinks as 1/√n.
func TestQuickHoeffdingShrinks(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%500 + 10
		a, err1 := LargeDeviation{}.Interval(nil, unitRange(n), avgQ, 0.95)
		b, err2 := LargeDeviation{}.Interval(nil, unitRange(4*n), avgQ, 0.95)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.HalfWidth/b.HalfWidth-2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Block jackknife ---

func TestBlockJackknifeMatchesClosedFormOnAvg(t *testing.T) {
	xs := gaussianData(200, 8000, 50, 8)
	jk, err := (BlockJackknife{Blocks: 40}).Interval(nil, xs, avgQ, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := (estimator.ClosedForm{}).Interval(nil, xs, avgQ, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if r := jk.HalfWidth / cf.HalfWidth; r < 0.7 || r > 1.4 {
		t.Errorf("jackknife/closed-form width ratio = %v, want ~1", r)
	}
	if jk.Center != cf.Center {
		t.Error("jackknife not centered on θ(S)")
	}
}

func TestBlockJackknifeCoverage(t *testing.T) {
	src := rng.New(201)
	pop := gaussianData(202, 100000, 20, 4)
	truth := avgQ.Eval(pop)
	covered := 0
	const trials = 120
	for i := 0; i < trials; i++ {
		s := WithReplacement(src, pop, 600)
		iv, err := (BlockJackknife{Blocks: 30}).Interval(nil, s, avgQ, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(truth) {
			covered++
		}
	}
	if covered < trials*85/100 {
		t.Errorf("jackknife coverage %d/%d below nominal", covered, trials)
	}
}

func TestBlockJackknifeDiagnosableAndEdges(t *testing.T) {
	jk := BlockJackknife{}
	if jk.Name() != "block-jackknife" {
		t.Error("name wrong")
	}
	if _, err := jk.Interval(nil, nil, avgQ, 0.95); err == nil {
		t.Error("empty sample accepted")
	}
	if jk.AppliesTo(estimator.Query{Kind: estimator.UDF}) {
		t.Error("bodiless UDF accepted")
	}
	// Fewer rows than blocks: clamps.
	if _, err := jk.Interval(nil, []float64{1, 2, 3}, avgQ, 0.95); err != nil {
		t.Errorf("tiny sample should still work: %v", err)
	}
	// The diagnostic accepts the jackknife as a ξ and rejects it for MAX
	// on heavy tails just like the bootstrap.
	s := paretoData(203, 40000, 1.1)
	maxQ := estimator.Query{Kind: estimator.Max}
	res, err := diagnostic.Run(context.Background(), rng.New(7), s,
		func() float64 { return maxQ.Eval(s) }, maxQ, jk, DiagnosticConfig(len(s), diagnostic.P))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("diagnostic accepted jackknife MAX on extreme Pareto data")
	}
}

// --- Evaluate ---

func TestEvaluateClosedFormCorrectOnGaussianMean(t *testing.T) {
	src := rng.New(20)
	pop := gaussianData(21, 100000, 100, 10)
	cfg := paperEvalConfig(1000)
	res := Evaluate(src, pop, avgQ, estimator.ClosedForm{}, cfg)
	if res.Verdict != Correct {
		t.Errorf("closed form on Gaussian AVG: %v (opt=%v pess=%v)",
			res.Verdict, res.FracOptimistic, res.FracPessimistic)
	}
	if len(res.Deltas) != cfg.Trials {
		t.Error("delta count wrong")
	}
}

func TestEvaluateBootstrapFailsOnHeavyTailMax(t *testing.T) {
	// MAX over heavy-tailed data is the canonical failure (§2.3.1): the
	// bootstrap cannot see beyond the sample's own maximum.
	src := rng.New(22)
	pop := paretoData(23, 200000, 1.1)
	cfg := EvalConfig{SampleSize: 500, Trials: 60, TruthP: 60,
		Alpha: 0.95, DeltaTol: 0.2, FailFrac: 0.05}
	res := Evaluate(src, pop, estimator.Query{Kind: estimator.Max}, estimator.Bootstrap{K: 60}, cfg)
	if res.Verdict == Correct {
		t.Errorf("bootstrap on Pareto MAX unexpectedly correct (opt=%v pess=%v)",
			res.FracOptimistic, res.FracPessimistic)
	}
}

func TestEvaluateHoeffdingPessimistic(t *testing.T) {
	src := rng.New(24)
	pop := gaussianData(25, 100000, 0.5, 0.05)
	for i := range pop { // clamp into [0,1] so the bound's range is honest
		pop[i] = math.Max(0, math.Min(1, pop[i]))
	}
	cfg := EvalConfig{SampleSize: 1000, Trials: 50, TruthP: 100,
		Alpha: 0.95, DeltaTol: 0.2, FailFrac: 0.05}
	res := Evaluate(src, pop, avgQ, LargeDeviation{Bound: Hoeffding}, cfg)
	if res.Verdict != Pessimistic {
		t.Errorf("Hoeffding verdict = %v, want pessimistic", res.Verdict)
	}
}

func TestEvaluateNotApplicable(t *testing.T) {
	src := rng.New(26)
	pop := gaussianData(27, 1000, 0, 1)
	res := Evaluate(src, pop, estimator.Query{Kind: estimator.Max}, estimator.ClosedForm{}, paperEvalConfig(100))
	if res.Verdict != NotApplicable {
		t.Errorf("verdict = %v, want not-applicable", res.Verdict)
	}
}

func TestEstimationWorks(t *testing.T) {
	src := rng.New(28)
	pop := gaussianData(29, 50000, 10, 1)
	cfg := EvalConfig{SampleSize: 500, Trials: 40, TruthP: 60,
		Alpha: 0.95, DeltaTol: 0.2, FailFrac: 0.05}
	if !EstimationWorks(src, pop, avgQ, estimator.ClosedForm{}, cfg) {
		t.Error("closed form should work on Gaussian AVG")
	}
}

// --- Assessing the diagnostic ---

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
	cases := []struct {
		data []float64
		q    estimator.Query
		est  estimator.Estimator
	}{
		{gaussianData(20, 40000, 100, 10), avgQ, estimator.ClosedForm{}},
		{gaussianData(21, 40000, 100, 10), estimator.Query{Kind: estimator.Sum, PopN: 400000}, estimator.ClosedForm{}},
		{gaussianData(22, 40000, 100, 10), avgQ, estimator.Bootstrap{K: 40}},
		{paretoData(23, 40000, 1.1), estimator.Query{Kind: estimator.Max}, estimator.Bootstrap{K: 40}},
		{paretoData(24, 40000, 1.05), estimator.Query{Kind: estimator.Max}, estimator.Bootstrap{K: 40}},
	}
	var tally Tally
	src := rng.New(25)
	for i, c := range cases {
		theta := func() float64 { return c.q.Eval(c.data) }
		res, err := diagnostic.Run(context.Background(), src, c.data, theta, c.q, c.est,
			DiagnosticConfig(len(c.data), diagnostic.P))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// Ground truth via the §3 protocol on a fresh "population" — here
		// the sample itself serves as the finite population.
		evalCfg := EvalConfig{SampleSize: 2000, Trials: 30, TruthP: 40,
			Alpha: 0.95, DeltaTol: 0.2, FailFrac: 0.05}
		works := EstimationWorks(src, c.data, c.q, c.est, evalCfg)
		tally.Add(Assess(res.OK, works))
	}
	if tally.AccurateFrac() < 0.6 {
		t.Errorf("diagnostic accuracy = %v over %d cases; want >= 0.6",
			tally.AccurateFrac(), tally.total)
	}
}
