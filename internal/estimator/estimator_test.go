package estimator

import (
	"context"
	"math"
	"testing"
	"testing/quick"

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

// withReplacement draws n of xs uniformly with replacement.
func withReplacement(src *rng.Source, xs []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = xs[src.Intn(len(xs))]
	}
	return out
}

// stddev is the population standard deviation of xs.
func stddev(xs []float64) float64 {
	var m stats.Moments
	m.AddAll(xs)
	return m.Stddev()
}

func paretoData(seed uint64, n int, alpha float64) []float64 {
	src := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.Pareto(1, alpha)
	}
	return xs
}

// --- Query evaluation ---

func TestQueryEvalKinds(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct {
		q    Query
		want float64
	}{
		{Query{Kind: Avg}, 2.5},
		{Query{Kind: Sum}, 10},
		{Query{Kind: Sum, PopN: 8}, 20}, // scaled by 8/4
		{Query{Kind: Count, PopN: 8}, 20},
		{Query{Kind: Min}, 1},
		{Query{Kind: Max}, 4},
		{Query{Kind: Variance}, 1.25},
		{Query{Kind: Stdev}, math.Sqrt(1.25)},
		{Query{Kind: Percentile, Pct: 0.5}, 2.5},
	}
	for _, c := range cases {
		if got := c.q.Eval(xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s.Eval = %v, want %v", c.q.Name(), got, c.want)
		}
	}
}

func TestQueryEvalWeighted(t *testing.T) {
	xs := []float64{1, 2, 3}
	w := []float64{0, 2, 1} // multiset {2, 2, 3}
	if got := (Query{Kind: Avg}).EvalWeighted(xs, w); math.Abs(got-7.0/3) > 1e-12 {
		t.Errorf("weighted AVG = %v", got)
	}
	if got := (Query{Kind: Sum}).EvalWeighted(xs, w); got != 7 {
		t.Errorf("weighted SUM = %v", got)
	}
	// Zero-weight row must not influence MIN.
	if got := (Query{Kind: Min}).EvalWeighted(xs, w); got != 2 {
		t.Errorf("weighted MIN = %v, want 2", got)
	}
	if got := (Query{Kind: Max}).EvalWeighted(xs, w); got != 3 {
		t.Errorf("weighted MAX = %v", got)
	}
	if got := (Query{Kind: Percentile, Pct: 0.5}).EvalWeighted(xs, w); got != 2 {
		t.Errorf("weighted median = %v, want 2", got)
	}
}

// TestMinMaxMatchMoments: MIN and MAX read off a compare-only loop return the
// bits stats.Moments' shifted-sum fold reports for the same rows — over vectors
// with NaNs (leading and not), both zeros, runs of equal extremes, negative,
// zero and NaN weights, no weights and no present row.
func TestMinMaxMatchMoments(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pool := []float64{math.NaN(), negZero, 0, 1, 1, -3, -3, 7, 7, math.Inf(1), math.Inf(-1)}
	wpool := []float64{0, 0, 1, 2, 3, -1, math.NaN()}
	src := rng.New(91)
	check := func(values, weights []float64) {
		t.Helper()
		var m stats.Moments
		foldWeighted(&m, values, weights)
		for _, c := range []struct {
			q    Query
			want float64
		}{{Query{Kind: Min}, m.Min()}, {Query{Kind: Max}, m.Max()}} {
			if got := c.q.EvalWeighted(values, weights); math.Float64bits(got) != math.Float64bits(c.want) {
				t.Fatalf("%s(%v, %v) = %v (%#x), Moments says %v (%#x)", c.q.Name(), values, weights,
					got, math.Float64bits(got), c.want, math.Float64bits(c.want))
			}
		}
	}
	for trial := 0; trial < 5000; trial++ {
		n := 1 + src.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = pool[src.Intn(len(pool))]
			if trial%7 != 6 { // every seventh trial: every row absent
				weights[i] = wpool[src.Intn(len(wpool))]
			}
		}
		check(values, weights)
		check(values, nil)
	}
}

func TestQuerySumScaledWeighted(t *testing.T) {
	// Scaled SUM on a resample: scale = PopN/n regardless of Σw.
	q := Query{Kind: Sum, PopN: 100}
	xs := []float64{1, 1, 1, 1} // n = 4, scale = 25
	w := []float64{2, 0, 1, 1}  // Σwx = 4
	if got := q.EvalWeighted(xs, w); got != 100 {
		t.Errorf("scaled weighted SUM = %v, want 100", got)
	}
}

func TestQueryUDF(t *testing.T) {
	q := Query{Kind: UDF, FnName: "range", Fn: func(v, w []float64) float64 {
		var m stats.Moments
		if w == nil {
			for _, x := range v {
				m.Add(x)
			}
		} else {
			for i, x := range v {
				m.AddWeighted(x, w[i])
			}
		}
		return m.Max() - m.Min()
	}}
	if got := q.Eval([]float64{3, 9, 5}); got != 6 {
		t.Errorf("UDF eval = %v", got)
	}
	if q.Name() != "UDF:range" {
		t.Errorf("UDF name = %q", q.Name())
	}
	empty := Query{Kind: UDF}
	if !math.IsNaN(empty.Eval([]float64{1})) {
		t.Error("UDF without Fn should evaluate to NaN")
	}
}

func TestQueryEmptyInput(t *testing.T) {
	for _, k := range []AggKind{Avg, Sum, Min, Max, Variance, Stdev, Percentile} {
		if got := (Query{Kind: k, Pct: 0.5}).Eval(nil); !math.IsNaN(got) {
			t.Errorf("%v.Eval(nil) = %v, want NaN", k, got)
		}
	}
}

func TestApplicabilityPredicates(t *testing.T) {
	for _, k := range []AggKind{Avg, Sum, Count, Variance, Stdev} {
		if !(Query{Kind: k}).ClosedFormApplicable() {
			t.Errorf("%v should be closed-form applicable", k)
		}
	}
	for _, k := range []AggKind{Min, Max, Percentile, UDF} {
		if (Query{Kind: k}).ClosedFormApplicable() {
			t.Errorf("%v should not be closed-form applicable", k)
		}
	}
}

func TestAggKindString(t *testing.T) {
	if Avg.String() != "AVG" || UDF.String() != "UDF" {
		t.Error("AggKind names wrong")
	}
	if (Query{Kind: Percentile, Pct: 0.99}).Name() != "PERCENTILE(0.99)" {
		t.Errorf("percentile name = %q", Query{Kind: Percentile, Pct: 0.99}.Name())
	}
}

// --- Interval ---

func TestIntervalGeometry(t *testing.T) {
	iv := Interval{Center: 10, HalfWidth: 2}
	if iv.Lo() != 8 || iv.Hi() != 12 {
		t.Error("interval geometry wrong")
	}
	if !iv.Contains(10) || !iv.Contains(8) || iv.Contains(12.001) {
		t.Error("Contains wrong")
	}
	if iv.RelativeError() != 0.2 {
		t.Errorf("RelativeError = %v", iv.RelativeError())
	}
	if !math.IsInf((Interval{Center: 0, HalfWidth: 1}).RelativeError(), 1) {
		t.Error("zero-center relative error should be +Inf")
	}
	if iv.String() == "" {
		t.Error("String empty")
	}
}

// --- Closed form ---

func TestClosedFormAvgMatchesFormula(t *testing.T) {
	xs := gaussianData(1, 1000, 100, 15)
	cf := ClosedForm{}
	iv, err := cf.Interval(nil, xs, Query{Kind: Avg}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	var m stats.Moments
	m.AddAll(xs)
	want := 1.959963984540054 * math.Sqrt(m.SampleVariance()/1000)
	if math.Abs(iv.HalfWidth-want)/want > 1e-9 {
		t.Errorf("AVG half-width = %v, want %v", iv.HalfWidth, want)
	}
	if math.Abs(iv.Center-stats.Mean(xs)) > 1e-9 {
		t.Error("interval not centered on sample mean")
	}
}

func TestClosedFormCoverage(t *testing.T) {
	// 95% CIs over repeated samples should cover θ(D) about 95% of the
	// time for well-behaved data.
	src := rng.New(2)
	pop := gaussianData(3, 200000, 50, 10)
	q := Query{Kind: Avg}
	truthMean := q.Eval(pop)
	cf := ClosedForm{}
	covered := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		s := withReplacement(src, pop, 500)
		iv, err := cf.Interval(nil, s, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(truthMean) {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.91 || frac > 0.99 {
		t.Errorf("closed-form coverage = %v, want ~0.95", frac)
	}
}

func TestClosedFormSumScaling(t *testing.T) {
	xs := gaussianData(4, 400, 10, 2)
	q := Query{Kind: Sum, PopN: 4000} // scale 10
	iv, err := ClosedForm{}.Interval(nil, xs, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ClosedForm{}.Interval(nil, xs, Query{Kind: Sum}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv.HalfWidth/plain.HalfWidth-10) > 1e-9 {
		t.Errorf("scaled SUM half-width ratio = %v, want 10",
			iv.HalfWidth/plain.HalfWidth)
	}
}

func TestClosedFormVarianceAndStdev(t *testing.T) {
	// Coverage check for the VARIANCE closed form on Gaussian data.
	src := rng.New(5)
	pop := gaussianData(6, 100000, 0, 3)
	q := Query{Kind: Variance}
	truth := q.Eval(pop)
	covered := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		s := withReplacement(src, pop, 1000)
		iv, err := ClosedForm{}.Interval(nil, s, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(truth) {
			covered++
		}
	}
	if frac := float64(covered) / trials; frac < 0.88 {
		t.Errorf("VARIANCE closed-form coverage = %v", frac)
	}
	// STDEV half-width should be roughly VARIANCE half-width / (2σ).
	s := withReplacement(src, pop, 1000)
	ivV, _ := ClosedForm{}.Interval(nil, s, Query{Kind: Variance}, 0.95)
	ivS, _ := ClosedForm{}.Interval(nil, s, Query{Kind: Stdev}, 0.95)
	wantRatio := 2 * stddev(s)
	gotRatio := ivV.HalfWidth / ivS.HalfWidth
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.05 {
		t.Errorf("VAR/STDEV width ratio = %v, want ~%v", gotRatio, wantRatio)
	}
}

// TestClosedFormCenterIsEval: the interval's center, read off the fold that
// gives σ̂, is bit for bit what Query.Eval computes in its own pass — the
// diagnostic takes θ on a subsample from it.
func TestClosedFormCenterIsEval(t *testing.T) {
	src := rng.New(93)
	for trial := 0; trial < 300; trial++ {
		values := make([]float64, 1+src.Intn(260))
		for i := range values {
			if trial%2 == 0 {
				values[i] = src.LogNormal(4, 0.6)
			} else {
				values[i] = float64(src.Intn(2)) // a COUNT's indicator column
			}
		}
		for _, q := range []Query{{Kind: Avg}, {Kind: Sum}, {Kind: Sum, PopN: 1_000_000},
			{Kind: Count, PopN: 77}, {Kind: Variance}, {Kind: Stdev}} {
			iv, err := ClosedForm{UseStudentT: trial%3 == 0}.Interval(nil, values, q, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if want := q.Eval(values); math.Float64bits(iv.Center) != math.Float64bits(want) {
				t.Fatalf("%s PopN=%d n=%d: center %v, Eval %v", q.Name(), q.PopN, len(values), iv.Center, want)
			}
		}
	}
}

func TestClosedFormNotApplicable(t *testing.T) {
	for _, k := range []AggKind{Min, Max, Percentile} {
		_, err := ClosedForm{}.Interval(nil, []float64{1, 2}, Query{Kind: k, Pct: 0.5}, 0.95)
		if err == nil {
			t.Errorf("%v should not have a closed form", k)
		}
	}
	if _, err := (ClosedForm{}).Interval(nil, nil, Query{Kind: Avg}, 0.95); err == nil {
		t.Error("empty sample should error")
	}
}

func TestClosedFormStudentT(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	z, _ := ClosedForm{}.Interval(nil, xs, Query{Kind: Avg}, 0.95)
	tt, _ := ClosedForm{UseStudentT: true}.Interval(nil, xs, Query{Kind: Avg}, 0.95)
	if tt.HalfWidth <= z.HalfWidth {
		t.Error("t interval should be wider than z interval at n=5")
	}
}

// --- Bootstrap ---

func TestBootstrapCoverageOnMean(t *testing.T) {
	src := rng.New(7)
	pop := gaussianData(8, 100000, 20, 5)
	q := Query{Kind: Avg}
	truthMean := q.Eval(pop)
	bs := Bootstrap{K: 100}
	covered := 0
	const trials = 150
	for i := 0; i < trials; i++ {
		s := withReplacement(src, pop, 400)
		iv, err := bs.Interval(src, s, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(truthMean) {
			covered++
		}
	}
	if frac := float64(covered) / trials; frac < 0.88 {
		t.Errorf("bootstrap coverage = %v, want ~0.95", frac)
	}
}

func TestBootstrapAppliesToEverything(t *testing.T) {
	bs := Bootstrap{}
	for _, k := range []AggKind{Avg, Sum, Min, Max, Variance, Percentile} {
		if !bs.AppliesTo(Query{Kind: k, Pct: 0.5}) {
			t.Errorf("bootstrap should apply to %v", k)
		}
	}
	if bs.AppliesTo(Query{Kind: UDF}) {
		t.Error("bootstrap should reject a UDF with no body")
	}
	if !bs.AppliesTo(Query{Kind: UDF, Fn: func(v, w []float64) float64 { return 0 }}) {
		t.Error("bootstrap should accept a UDF with a body")
	}
}

func TestBootstrapAgreesWithClosedFormOnAvg(t *testing.T) {
	xs := gaussianData(9, 2000, 0, 1)
	q := Query{Kind: Avg}
	src := rng.New(10)
	bIv, err := Bootstrap{K: 400}.Interval(src, xs, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	cIv, err := ClosedForm{}.Interval(nil, xs, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	ratio := bIv.HalfWidth / cIv.HalfWidth
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("bootstrap/closed-form width ratio = %v, want ~1", ratio)
	}
}

func TestBootstrapDeterministicUnderSeed(t *testing.T) {
	xs := gaussianData(11, 100, 0, 1)
	q := Query{Kind: Avg}
	a, _ := Bootstrap{K: 50}.Interval(rng.New(1), xs, q, 0.95)
	b, _ := Bootstrap{K: 50}.Interval(rng.New(1), xs, q, 0.95)
	if a != b {
		t.Error("same seed produced different bootstrap intervals")
	}
}

func TestBootstrapDistributionLength(t *testing.T) {
	xs := gaussianData(12, 50, 0, 1)
	for _, k := range []int{37, DefaultBootstrapK} {
		d := Bootstrap{K: k}.estimatesContext(context.Background(), rng.New(1), xs, Query{Kind: Avg}, k)
		if len(d) != k {
			t.Errorf("K = %d: distribution length = %d", k, len(d))
		}
	}
}

func TestBootstrapEmptySample(t *testing.T) {
	if _, err := (Bootstrap{}).Interval(rng.New(1), nil, Query{Kind: Avg}, 0.95); err == nil {
		t.Error("empty sample should error")
	}
}

// Property: for any data, the bootstrap interval is centered on θ(S).
func TestQuickBootstrapCentering(t *testing.T) {
	src := rng.New(30)
	f := func(seed uint64) bool {
		s := rng.New(seed)
		n := 20 + s.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.LogNormal(0, 1)
		}
		q := Query{Kind: Avg}
		iv, err := Bootstrap{K: 30}.Interval(src, xs, q, 0.9)
		if err != nil {
			return false
		}
		return iv.Center == q.Eval(xs) && iv.HalfWidth >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkClosedFormAvg(b *testing.B) {
	xs := gaussianData(31, 100000, 0, 1)
	q := Query{Kind: Avg}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (ClosedForm{}).Interval(nil, xs, q, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBootstrapAvgK100(b *testing.B) {
	xs := gaussianData(32, 100000, 0, 1)
	q := Query{Kind: Avg}
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Bootstrap{K: 100}).Interval(src, xs, q, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: AVG intervals scale linearly when the data is scaled.
func TestQuickIntervalScaleEquivariance(t *testing.T) {
	base := gaussianData(51, 400, 10, 2)
	q := Query{Kind: Avg}
	f := func(scaleRaw uint8) bool {
		c := 1 + float64(scaleRaw%50)
		scaled := make([]float64, len(base))
		for i, v := range base {
			scaled[i] = c * v
		}
		a, err1 := (ClosedForm{}).Interval(nil, base, q, 0.95)
		b, err2 := (ClosedForm{}).Interval(nil, scaled, q, 0.95)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(b.HalfWidth-c*a.HalfWidth) < 1e-9*c*a.HalfWidth+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCritValueMemo: the memoized Student-t critical value has the bits of
// stats.StudentTQuantile for every (df, level), across slot collisions (df
// 1 and 65 share a slot) and from concurrent callers.
func TestCritValueMemo(t *testing.T) {
	levels := []float64{0.9, 0.95, 0.99}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for round := 0; round < 3; round++ {
				for df := 1.0; df <= 200; df++ {
					for _, a := range levels {
						want := stats.StudentTQuantile(0.5+a/2, df)
						if got := critValue(a, df, true); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("df=%v alpha=%v: %v, want %v", df, a, got, want)
							return
						}
					}
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got, want := critValue(0.95, 0.5, true), stats.StdNormalQuantile(0.975); got != want {
		t.Errorf("df < 1 takes the normal quantile: %v, want %v", got, want)
	}
}
