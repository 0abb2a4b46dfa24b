// Package protocol is the paper's §3 comparison of error-estimation
// techniques and §4.2's scoring of the diagnostic against it: the ground
// truth ("true confidence interval") of a query at a sample size, the
// δ-based verdict on a technique, the techniques the engine does not serve
// (large-deviation bounds and the block jackknife), and the tally of
// diagnostic outcomes that Fig. 4 plots. The engine serves only the closed
// form and the bootstrap (internal/estimator) and judges them with
// Algorithm 1 (internal/diagnostic); everything here exists to reproduce
// the figures that show why.
package protocol

import (
	"math"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/stats"
)

// WithReplacement draws n rows uniformly at random from xs with
// replacement, matching the paper's simple-random-sampling model (§2.1).
func WithReplacement(src *rng.Source, xs []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = xs[src.Intn(len(xs))]
	}
	return out
}

// figureFloor is the least largest ladder size the figures diagnose: rungs
// of 1, 2 and 4 rows.
const figureFloor = 4

// DiagnosticConfig returns Algorithm 1 with p subsamples per size on a
// sample of n rows that all reach the aggregate: the paper's 1:2:4 ladder,
// sized so that p disjoint subsamples of the largest size use half of the
// sample. The figures vary p, which the engine's diagnostic.Ladder fixes at
// diagnostic.P. The ladder is nil, and diagnostic.Run fails validation,
// when the largest size would hold fewer than 4 rows.
func DiagnosticConfig(n, p int) diagnostic.Config {
	cfg := diagnostic.Config{P: p}
	if b3 := n / (2 * p); b3 >= figureFloor {
		cfg.SubsampleSizes = []int{b3 / 4, b3 / 2, b3}
	}
	return cfg
}

// Truth holds the ground-truth quantities of §2.2 for one (dataset, query,
// sample size) triple: the exact answer θ(D) and the "true confidence
// interval" — the symmetric interval around θ(D) covering exactly α of the
// sampling distribution of θ(S), approximated with p fresh samples.
type Truth struct {
	Answer    float64            // θ(D)
	Interval  estimator.Interval // centered on θ(D)
	Estimates []float64          // the p sample estimates θ(S₁)...θ(S_p)
}

// ComputeTruth draws p independent samples of size n (with replacement)
// from population, evaluates θ on each, and returns the ground truth. This
// is the expensive oracle the diagnostic exists to avoid.
func ComputeTruth(src *rng.Source, population []float64, q estimator.Query, n, p int, alpha float64) Truth {
	answer := q.Eval(population)
	ests := make([]float64, p)
	for i := range ests {
		s := WithReplacement(src, population, n)
		ests[i] = q.Eval(s)
	}
	half := stats.SymmetricHalfWidth(ests, answer, alpha)
	return Truth{
		Answer:    answer,
		Interval:  estimator.Interval{Center: answer, HalfWidth: half},
		Estimates: ests,
	}
}

// Delta computes the paper's δ accuracy statistic comparing an estimated
// interval width against the true interval width:
//
//	δ = (estimated width − true width) / true width
//
// δ > 0.2 flags a pessimistic estimate (interval too wide), δ < −0.2 an
// optimistic and incorrect one (interval too narrow). The sign convention
// follows §3's classification (pessimism = overestimation of error).
// Returns NaN when the true width is zero or either width is NaN.
func Delta(estimated, truth estimator.Interval) float64 {
	tw := 2 * truth.HalfWidth
	ew := 2 * estimated.HalfWidth
	if tw == 0 || math.IsNaN(tw) || math.IsNaN(ew) {
		return math.NaN()
	}
	return (ew - tw) / tw
}
