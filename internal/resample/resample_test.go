package resample

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

func weightedMean(values, weights []float64) float64 {
	if weights == nil {
		return stats.Mean(values)
	}
	var sum, wsum float64
	for i, v := range values {
		sum += v * weights[i]
		wsum += weights[i]
	}
	if wsum == 0 {
		return math.NaN()
	}
	return sum / wsum
}

func TestPoissonWeightsMoments(t *testing.T) {
	src := rng.New(1)
	w := PoissonWeights(src, 200000)
	var m stats.Moments
	for _, v := range w {
		if v < 0 || v != math.Trunc(v) {
			t.Fatalf("weight %v is not a non-negative integer", v)
		}
		m.Add(v)
	}
	if math.Abs(m.Mean()-1) > 0.02 {
		t.Errorf("weight mean = %v, want ~1", m.Mean())
	}
	if math.Abs(m.Variance()-1) > 0.03 {
		t.Errorf("weight variance = %v, want ~1", m.Variance())
	}
}

func TestPoissonWeightsRate(t *testing.T) {
	src := rng.New(2)
	w := PoissonWeightsRate(src, 100000, 2.5)
	if m := stats.Mean(w); math.Abs(m-2.5) > 0.05 {
		t.Errorf("rate-2.5 weight mean = %v", m)
	}
	w0 := PoissonWeightsRate(src, 100, 0)
	for _, v := range w0 {
		if v != 0 {
			t.Fatal("rate-0 weights must all be zero")
		}
	}
}

func TestFillPoissonWeightsReusesStorage(t *testing.T) {
	src := rng.New(3)
	w := make([]float64, 1000)
	FillPoissonWeights(src, w)
	mean := stats.Mean(w)
	if mean == 0 {
		t.Fatal("weights all zero")
	}
	FillPoissonWeights(src, w)
	if stats.Mean(w) == mean {
		t.Fatal("refill produced identical weights; RNG not advancing")
	}
}

func TestWeightMatrixShapeAndIndependence(t *testing.T) {
	src := rng.New(4)
	m := WeightMatrix(src, 500, 10)
	if len(m) != 10 {
		t.Fatalf("k = %d", len(m))
	}
	for _, row := range m {
		if len(row) != 500 {
			t.Fatalf("n = %d", len(row))
		}
	}
	// Distinct resamples must differ.
	same := true
	for i := range m[0] {
		if m[0][i] != m[1][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two resamples have identical weights")
	}
}

func TestExactMultinomialWeightsSumExactly(t *testing.T) {
	src := rng.New(5)
	for _, n := range []int{1, 10, 1000, 20000} {
		w := ExactMultinomialWeights(src, n)
		// Integer weights summing to n average exactly 1.
		if got := stats.Mean(w); got != 1 {
			t.Fatalf("n=%d: weights average %v, want 1", n, got)
		}
	}
}

func TestMaterializePreservesSupport(t *testing.T) {
	src := rng.New(6)
	xs := []float64{10, 20, 30}
	out := Materialize(src, xs)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	for _, v := range out {
		if v != 10 && v != 20 && v != 30 {
			t.Fatalf("materialized value %v not in support", v)
		}
	}
}

func TestEstimatesAllStrategiesAgreeOnMean(t *testing.T) {
	// The bootstrap distribution of the mean should be centered on the
	// sample mean with stddev ≈ s/√n under every strategy.
	src := rng.New(7)
	n := 2000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 50 + 10*src.NormFloat64()
	}
	sampleMean := stats.Mean(xs)
	wantSE := math.Sqrt(stats.SampleVariance(xs) / float64(n))
	for _, strat := range []Strategy{Poissonized, ExactMultinomial, TupleAugmentation} {
		ests := Estimates(src, xs, 300, weightedMean, strat)
		if len(ests) != 300 {
			t.Fatalf("%v: got %d estimates", strat, len(ests))
		}
		m := stats.Mean(ests)
		se := stats.Stddev(ests)
		if math.Abs(m-sampleMean) > 4*wantSE {
			t.Errorf("%v: bootstrap mean %v far from sample mean %v", strat, m, sampleMean)
		}
		if se < 0.6*wantSE || se > 1.5*wantSE {
			t.Errorf("%v: bootstrap SE %v, want ~%v", strat, se, wantSE)
		}
	}
}

func TestEstimatesDeterministicUnderSeed(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a := Estimates(rng.New(42), xs, 20, weightedMean, Poissonized)
	b := Estimates(rng.New(42), xs, 20, weightedMean, Poissonized)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different bootstrap estimates")
		}
	}
}

func TestUniformLift(t *testing.T) {
	xs := []float64{2, 4, 6}
	if got := Uniform(weightedMean, xs); got != 4 {
		t.Errorf("Uniform mean = %v, want 4", got)
	}
}

func TestStrategyString(t *testing.T) {
	if Poissonized.String() != "poissonized" ||
		ExactMultinomial.String() != "exact-multinomial" ||
		TupleAugmentation.String() != "tuple-augmentation" {
		t.Error("strategy names wrong")
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

// The §5.1 concentration claim: for |S| = 10,000, the Poissonized resample
// size lands in [9500, 10500] with probability ≈ 0.9999994. With 200k
// trials we verify ≥ 0.9999.
func TestSizeConcentrationClaim(t *testing.T) {
	src := rng.New(8)
	p := SizeDistribution(src, 10000, 200000, 9500, 10500)
	if p < 0.9999 {
		t.Errorf("P(size in [9500,10500]) = %v, want >= 0.9999", p)
	}
}

// Property: Poissonized resample sizes concentrate like Normal(n, sqrt(n)):
// ±4σ captures essentially everything.
func TestQuickSizeWithinFourSigma(t *testing.T) {
	src := rng.New(9)
	f := func(nRaw uint16) bool {
		n := int(nRaw)%5000 + 100
		sigma := math.Sqrt(float64(n))
		size := src.Poisson(float64(n))
		return math.Abs(float64(size-n)) < 6*sigma // 6σ: essentially certain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: exact multinomial weights always sum to n and are non-negative.
func TestQuickExactMultinomialInvariant(t *testing.T) {
	src := rng.New(10)
	f := func(nRaw uint8) bool {
		n := int(nRaw) + 1
		w := ExactMultinomialWeights(src, n)
		sum := 0.0
		for _, v := range w {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The §5.2/§5.1 performance claim behind Poissonization: generating
// streamed Poisson weights is far cheaper than materializing resamples
// (TA), which Pol & Jermaine measured at 8–9× a plain query.
func BenchmarkPoissonizedWeights(b *testing.B) {
	src := rng.New(1)
	w := make([]float64, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FillPoissonWeights(src, w)
	}
}

func BenchmarkExactMultinomialWeights(b *testing.B) {
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactMultinomialWeights(src, 100000)
	}
}

func BenchmarkTupleAugmentation(b *testing.B) {
	src := rng.New(1)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Materialize(src, xs)
	}
}

func BenchmarkResamplingStrategies(b *testing.B) {
	xs := make([]float64, 20000)
	src := rng.New(2)
	for i := range xs {
		xs[i] = src.NormFloat64()
	}
	for _, strat := range []Strategy{Poissonized, ExactMultinomial, TupleAugmentation} {
		b.Run(strat.String(), func(b *testing.B) {
			s := rng.New(3)
			for i := 0; i < b.N; i++ {
				Estimates(s, xs, 10, weightedMean, strat)
			}
		})
	}
}
