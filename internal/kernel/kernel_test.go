package kernel_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/kernel"
	"repro/internal/rng"
)

func testData(seed uint64, n int) []float64 {
	src := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 50 + 5*src.NormFloat64()
	}
	return xs
}

// relDiff is the relative difference, safe around zero.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

// The fused Σw·x / Σw accumulators must agree with the generic weighted-θ
// path on identical RNG streams for every kind they cover, the fixed-scale
// sums of a group included, up to floating-point summation order.
func TestFusedMatchesGenericWeightedTheta(t *testing.T) {
	xs := testData(1, 5000)
	const k = 50
	const seed, stream = 42, 7
	queries := []estimator.Query{
		{Kind: estimator.Avg},
		{Kind: estimator.Sum},
		{Kind: estimator.Sum, PopN: 100000},
		{Kind: estimator.Count, PopN: 100000},
		{Kind: estimator.Sum, Scale: 20},
		{Kind: estimator.Count, Scale: 20},
	}
	for _, q := range queries {
		if !q.FusedApplicable() {
			t.Fatalf("%s: expected fused applicability", q.Name())
		}
		sums := kernel.FusedSums(context.Background(), xs, k, seed, stream, 1)
		ests, _ := kernel.Generic(context.Background(), xs, k, seed, stream, 1, q.EvalWeighted)
		for r := 0; r < k; r++ {
			fused := q.FinalizeFused(sums.WX[r], sums.W[r], len(xs))
			if d := relDiff(fused, ests[r]); d > 1e-12 {
				t.Errorf("%s resample %d: fused %v vs generic %v (rel diff %g)",
					q.Name(), r, fused, ests[r], d)
			}
		}
	}
}

// FusedSums must be bit-identical at every worker count: per-block partials
// are merged serially in block order, so the FP reduction order never
// depends on parallelism.
func TestFusedSumsWorkerInvariance(t *testing.T) {
	xs := testData(2, 20000) // 20 blocks
	const k = 32
	base := kernel.FusedSums(context.Background(), xs, k, 9, 11, 1)
	for _, workers := range []int{2, 4, 8, 64} {
		got := kernel.FusedSums(context.Background(), xs, k, 9, 11, workers)
		for r := 0; r < k; r++ {
			if got.WX[r] != base.WX[r] || got.W[r] != base.W[r] {
				t.Fatalf("workers=%d resample %d: (%v, %v) != serial (%v, %v)",
					workers, r, got.WX[r], got.W[r], base.WX[r], base.W[r])
			}
		}
	}
}

// Generic must likewise be worker-count-invariant: each resample owns its
// per-(resample, block) streams regardless of which goroutine runs it.
func TestGenericWorkerInvariance(t *testing.T) {
	xs := testData(3, 8000)
	const k = 37 // deliberately not a multiple of any worker count
	q := estimator.Query{Kind: estimator.Percentile, Pct: 0.9}
	base, tasks := kernel.Generic(context.Background(), xs, k, 13, 17, 1, q.EvalWeighted)
	if tasks != 1 {
		t.Errorf("serial path reported %d tasks, want 1", tasks)
	}
	for _, workers := range []int{2, 4, 8} {
		got, tasks := kernel.Generic(context.Background(), xs, k, 13, 17, workers, q.EvalWeighted)
		if tasks != workers {
			t.Errorf("workers=%d launched %d tasks", workers, tasks)
		}
		for r := 0; r < k; r++ {
			if got[r] != base[r] {
				t.Fatalf("workers=%d resample %d: %v != serial %v",
					workers, r, got[r], base[r])
			}
		}
	}
}

// FillWeights must reproduce exactly the weights FusedSums consumed: Σw
// matches bit-for-bit (both are integer event counts), and Σw·x matches up
// to floating-point order (FusedSums accumulates in event order, a weight
// vector sums in row order).
func TestFillWeightsMatchesFusedSums(t *testing.T) {
	xs := testData(4, 3000) // 3 blocks, last one partial
	const k = 8
	const seed, stream = 5, 6
	sums := kernel.FusedSums(context.Background(), xs, k, seed, stream, 1)
	w := make([]float64, len(xs))
	for r := 0; r < k; r++ {
		kernel.FillWeights(w, seed, stream, r)
		var totWX, totW float64
		for i, wi := range w {
			totWX += wi * xs[i]
			totW += wi
		}
		if totW != sums.W[r] {
			t.Errorf("resample %d: FillWeights Σw = %v, FusedSums %v",
				r, totW, sums.W[r])
		}
		if d := relDiff(totWX, sums.WX[r]); d > 1e-12 {
			t.Errorf("resample %d: FillWeights Σwx = %v, FusedSums %v (rel diff %g)",
				r, totWX, sums.WX[r], d)
		}
	}
}

// Sanity on the weight distribution: Poisson(1) weights have mean 1 and
// variance 1, and distinct resamples draw distinct streams.
func TestFillWeightsPoissonMoments(t *testing.T) {
	const n = 100000
	w0 := make([]float64, n)
	w1 := make([]float64, n)
	kernel.FillWeights(w0, 21, 22, 0)
	kernel.FillWeights(w1, 21, 22, 1)
	same := 0
	var sum, sumSq float64
	for i := range w0 {
		sum += w0[i]
		sumSq += w0[i] * w0[i]
		if w0[i] == w1[i] {
			same++
		}
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("weight mean %v, want ~1", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("weight variance %v, want ~1", variance)
	}
	// Identical streams would make every position agree; independent
	// Poisson(1) pairs agree ~41% of the time (Σ P(X=j)²).
	if frac := float64(same) / n; frac > 0.6 {
		t.Errorf("resamples 0 and 1 agree at %v of positions; streams not distinct", frac)
	}
}

func TestKernelEdgeCases(t *testing.T) {
	// k = 0: empty accumulators, no work.
	s := kernel.FusedSums(context.Background(), []float64{1, 2, 3}, 0, 1, 2, 4)
	if len(s.WX) != 0 || len(s.W) != 0 {
		t.Errorf("k=0 returned non-empty sums")
	}
	// Empty input: zero-valued accumulators for every resample.
	s = kernel.FusedSums(context.Background(), nil, 4, 1, 2, 4)
	if len(s.WX) != 4 {
		t.Fatalf("empty input: got %d accumulators, want 4", len(s.WX))
	}
	for r := 0; r < 4; r++ {
		if s.WX[r] != 0 || s.W[r] != 0 {
			t.Errorf("empty input resample %d: nonzero sums", r)
		}
	}
	ests, tasks := kernel.Generic(context.Background(), nil, 0, 1, 2, 4, func(_, _ []float64) float64 { return 0 })
	if len(ests) != 0 || tasks != 0 {
		t.Errorf("k=0 generic: ests=%v tasks=%d", ests, tasks)
	}
}
