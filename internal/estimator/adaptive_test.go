package estimator

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// AdaptiveBootstrap is test-only until the query-level bootstrap adopts its
// stopping rule (ROADMAP item 4(a)); these tests keep it correct meanwhile.
//
// AdaptiveBootstrap is a bootstrap whose resample count K is tuned
// automatically (the paper's §2.3.1 notes K "can be tuned automatically",
// citing Efron & Tibshirani): it starts at MinK and doubles until the
// confidence interval's half-width stabilizes to within Tolerance, or
// MaxK is reached. On easy queries this saves half or more of the
// resampling work; on hard ones it converges to the fixed-K answer.
type AdaptiveBootstrap struct {
	// MinK is the starting resample count (0 = 25).
	MinK int
	// MaxK caps the total resamples (0 = 400).
	MaxK int
	// Tolerance is the acceptable relative half-width change per doubling
	// (0 = 0.05).
	Tolerance float64
}

func (ab AdaptiveBootstrap) minK() int {
	if ab.MinK <= 0 {
		return 25
	}
	return ab.MinK
}

func (ab AdaptiveBootstrap) maxK() int {
	if ab.MaxK <= 0 {
		return 400
	}
	return ab.MaxK
}

func (ab AdaptiveBootstrap) tolerance() float64 {
	if ab.Tolerance <= 0 {
		return 0.05
	}
	return ab.Tolerance
}

// Name implements Estimator.
func (AdaptiveBootstrap) Name() string { return "adaptive-bootstrap" }

// AppliesTo implements Estimator.
func (AdaptiveBootstrap) AppliesTo(q Query) bool { return (Bootstrap{}).AppliesTo(q) }

// Interval implements Estimator.
func (ab AdaptiveBootstrap) Interval(src *rng.Source, values []float64, q Query, alpha float64) (Interval, error) {
	iv, _, err := ab.IntervalK(src, values, q, alpha)
	return iv, err
}

// IntervalContext implements ContextEstimator: the adaptive doubling loop
// checks ctx between batches, so a cancelled query stops growing K.
func (ab AdaptiveBootstrap) IntervalContext(ctx context.Context, src *rng.Source, values []float64, q Query, alpha float64) (Interval, error) {
	iv, _, err := ab.IntervalKContext(ctx, src, values, q, alpha)
	return iv, err
}

// IntervalK is Interval but also reports the number of resamples drawn.
func (ab AdaptiveBootstrap) IntervalK(src *rng.Source, values []float64, q Query, alpha float64) (Interval, int, error) {
	return ab.IntervalKContext(context.Background(), src, values, q, alpha)
}

// IntervalKContext is IntervalK honouring cancellation: ctx is checked
// before every resample batch (and inside the kernel per block), so the
// abort latency is bounded by one batch of the smallest size MinK.
func (ab AdaptiveBootstrap) IntervalKContext(ctx context.Context, src *rng.Source, values []float64, q Query, alpha float64) (Interval, int, error) {
	if len(values) == 0 {
		return Interval{}, 0, fmt.Errorf("estimator: empty sample")
	}
	if !ab.AppliesTo(q) {
		return Interval{}, 0, fmt.Errorf("%w: UDF without function body", ErrNotApplicable)
	}
	center := q.Eval(values)
	var ests []float64
	draw := func(k int) {
		b := Bootstrap{K: k}
		ests = append(ests, b.estimatesContext(ctx, src, values, q, k)...)
	}
	if err := ctx.Err(); err != nil {
		return Interval{}, 0, err
	}
	// The stopping rule tracks the pooled bootstrap standard deviation
	// rather than the reported half-width: the symmetric centered
	// half-width is an extreme order statistic of the pool and fluctuates
	// far more than Tolerance between doublings even when the underlying
	// spread has long stabilized. The stddev has the same scale (so the
	// relative-change test is equivalent in expectation) but concentrates
	// at the usual 1/√K rate.
	draw(ab.minK())
	prev := stddev(ests)
	for len(ests) < ab.maxK() {
		if err := ctx.Err(); err != nil {
			return Interval{}, len(ests), err
		}
		grow := len(ests)
		if len(ests)+grow > ab.maxK() {
			grow = ab.maxK() - len(ests)
		}
		draw(grow)
		if err := ctx.Err(); err != nil {
			return Interval{}, len(ests), err
		}
		cur := stddev(ests)
		if prev > 0 && math.Abs(cur-prev)/prev < ab.tolerance() {
			half := stats.SymmetricHalfWidth(ests, center, alpha)
			return Interval{Center: center, HalfWidth: half}, len(ests), nil
		}
		prev = cur
	}
	if err := ctx.Err(); err != nil {
		return Interval{}, len(ests), err
	}
	half := stats.SymmetricHalfWidth(ests, center, alpha)
	return Interval{Center: center, HalfWidth: half}, len(ests), nil
}

func TestAdaptiveBootstrapConvergesOnEasyQuery(t *testing.T) {
	xs := gaussianData(100, 5000, 50, 5)
	q := Query{Kind: Avg}
	ab := AdaptiveBootstrap{MinK: 25, MaxK: 400, Tolerance: 0.05}
	iv, k, err := ab.IntervalK(rng.New(1), xs, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if k >= 400 {
		t.Errorf("adaptive K = %d, want early convergence on Gaussian AVG", k)
	}
	if k < 25 {
		t.Errorf("adaptive K = %d below MinK", k)
	}
	// Width should agree with a large fixed-K bootstrap within ~25%.
	fixed, err := (Bootstrap{K: 400}).Interval(rng.New(2), xs, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if r := iv.HalfWidth / fixed.HalfWidth; r < 0.7 || r > 1.4 {
		t.Errorf("adaptive width ratio vs fixed K=400: %v", r)
	}
}

func TestAdaptiveBootstrapRespectsMaxK(t *testing.T) {
	// Heavy-tail MAX: widths never stabilize, so K must cap at MaxK.
	xs := paretoData(101, 5000, 1.05)
	q := Query{Kind: Max}
	ab := AdaptiveBootstrap{MinK: 20, MaxK: 100, Tolerance: 0.01}
	_, k, err := ab.IntervalK(rng.New(3), xs, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if k > 100 {
		t.Errorf("adaptive K = %d exceeded MaxK", k)
	}
}

func TestAdaptiveBootstrapDefaultsAndErrors(t *testing.T) {
	ab := AdaptiveBootstrap{}
	if ab.Name() != "adaptive-bootstrap" {
		t.Error("name wrong")
	}
	if !ab.AppliesTo(Query{Kind: Percentile, Pct: 0.5}) {
		t.Error("should apply to percentiles")
	}
	if ab.AppliesTo(Query{Kind: UDF}) {
		t.Error("should reject bodiless UDFs")
	}
	if _, err := ab.Interval(rng.New(4), nil, Query{Kind: Avg}, 0.95); err == nil {
		t.Error("empty sample accepted")
	}
	xs := gaussianData(102, 500, 0, 1)
	iv, err := ab.Interval(rng.New(5), xs, Query{Kind: Avg}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(iv.HalfWidth) || iv.HalfWidth <= 0 {
		t.Errorf("degenerate interval %v", iv)
	}
}

func TestAdaptiveBootstrapDeterministic(t *testing.T) {
	xs := gaussianData(103, 1000, 10, 2)
	q := Query{Kind: Avg}
	a, ka, _ := (AdaptiveBootstrap{}).IntervalK(rng.New(6), xs, q, 0.95)
	b, kb, _ := (AdaptiveBootstrap{}).IntervalK(rng.New(6), xs, q, 0.95)
	if a != b || ka != kb {
		t.Error("adaptive bootstrap not deterministic under a seed")
	}
}
