package estimator

import (
	"context"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/stats"
)

// DefaultBootstrapK is the paper's resample count (§2.3.1: "a reasonably
// large number, like 100").
const DefaultBootstrapK = 100

// IntervalMethod selects how a confidence interval is read off the
// bootstrap distribution.
type IntervalMethod int

// Bootstrap interval constructions.
const (
	// SymmetricCentered is the paper's §2.2 construction: the smallest
	// interval around θ(S) covering α of the bootstrap distribution.
	SymmetricCentered IntervalMethod = iota
	// NormalApprox fits N(θ(S), sd(bootstrap)²) and uses ±z·sd. Less
	// noisy at small K, blind to skew.
	NormalApprox
	// PercentileMethod uses the (1±α)/2 bootstrap quantiles re-centered
	// on θ(S) (half-width = half the quantile range).
	PercentileMethod
)

func (m IntervalMethod) String() string {
	switch m {
	case SymmetricCentered:
		return "symmetric-centered"
	case NormalApprox:
		return "normal-approx"
	case PercentileMethod:
		return "percentile"
	default:
		return "unknown"
	}
}

// Bootstrap is Efron's nonparametric bootstrap (§2.3.1): it approximates
// the sampling distribution of θ(S) by the distribution of θ over K
// Poissonized resamples of S. It applies to every aggregate, including
// black-box UDFs.
type Bootstrap struct {
	// K is the number of resamples; zero means DefaultBootstrapK.
	K int
	// Method selects the interval construction; the zero value is the
	// paper's symmetric centered interval.
	Method IntervalMethod
}

// Resamples is the number of resample estimates each interval draws.
func (b Bootstrap) Resamples() int {
	if b.K <= 0 {
		return DefaultBootstrapK
	}
	return b.K
}

// Name implements Estimator.
func (Bootstrap) Name() string { return "bootstrap" }

// AppliesTo implements Estimator: the bootstrap is fully generic.
func (Bootstrap) AppliesTo(q Query) bool {
	return q.Kind != UDF || q.Fn != nil
}

// Interval implements Estimator. The interval is centered on θ(S) with the
// half-width chosen as the smallest symmetric radius covering α of the
// bootstrap distribution (§2.2's symmetric centered construction).
func (b Bootstrap) Interval(src *rng.Source, values []float64, q Query, alpha float64) (Interval, error) {
	return b.IntervalContext(context.Background(), src, values, q, alpha)
}

// IntervalContext implements ContextEstimator: Interval, aborting the
// resampling kernel when ctx is cancelled. The cancellation latency is one
// kernel block (fused path) or one resample (generic path).
func (b Bootstrap) IntervalContext(ctx context.Context, src *rng.Source, values []float64, q Query, alpha float64) (Interval, error) {
	if len(values) == 0 {
		return Interval{}, fmt.Errorf("estimator: empty sample")
	}
	if !b.AppliesTo(q) {
		return Interval{}, fmt.Errorf("%w: UDF without function body", ErrNotApplicable)
	}
	k := b.Resamples()
	if q.Kind == UDF {
		// One offer spans θ(S) and the resamples, so they share one order.
		defer offerOrder(values).release()
	}
	center := q.Eval(values)
	ests := b.estimatesContext(ctx, src, values, q, k)
	if err := ctx.Err(); err != nil {
		return Interval{}, err
	}
	var half float64
	switch b.Method {
	case NormalApprox:
		half = stats.StdNormalQuantile(0.5+alpha/2) * stats.Stddev(ests)
	case PercentileMethod:
		lo := stats.Quantile(ests, (1-alpha)/2)
		hi := stats.Quantile(ests, (1+alpha)/2)
		half = (hi - lo) / 2
	default:
		// ests is this call's own and is not read again.
		half = stats.SymmetricHalfWidthInPlace(ests, center, alpha)
	}
	return Interval{Center: center, HalfWidth: half}, nil
}

// estimatesContext draws the kernel's seed and stream from src and
// produces the K resample estimates (ResampleEstimates) on one worker.
func (b Bootstrap) estimatesContext(ctx context.Context, src *rng.Source, values []float64, q Query, k int) []float64 {
	seed, stream := src.Uint64(), src.Uint64()
	out, _ := q.ResampleEstimates(ctx, values, k, seed, stream, 1)
	return out
}

// ResampleEstimates produces q's K resample estimates over values on the
// blocked multi-resample kernel (internal/kernel), and the number of
// parallel tasks it ran: fused Σw·x / Σw accumulators for the closed-form
// family (no weight vectors materialized), the generic weighted-θ fallback
// (pooled weight buffers) otherwise. Both draw the same per-(resample,
// block) weight streams from (seed, stream), so fused and generic agree on
// identical weights for identical queries, and the estimates are
// bit-identical at every worker count. Cancellation aborts the kernel
// mid-column; the partial estimates are meaningless and callers must check
// ctx.Err() before using them.
func (q Query) ResampleEstimates(ctx context.Context, values []float64, k int, seed, stream uint64, workers int) ([]float64, int) {
	if !q.FusedApplicable() {
		theta, release := q.ResampleTheta(values)
		defer release()
		return kernel.Generic(ctx, values, k, seed, stream, workers, theta)
	}
	sums := kernel.FusedSums(ctx, values, k, seed, stream, workers)
	out := make([]float64, k)
	for r := range out {
		out[r] = q.FinalizeFused(sums.WX[r], sums.W[r], len(values))
	}
	return out, sums.Tasks
}
