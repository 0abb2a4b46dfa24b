package protocol

import (
	"fmt"
	"math"

	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/stats"
)

// BlockJackknife estimates the sampling variance of θ(S) by the
// delete-a-block jackknife: partition the sample into g blocks, evaluate θ
// with each block left out, and scale the spread of the leave-one-out
// estimates. Efron's bootstrap (ref [16] of the paper, "another look at
// the jackknife") generalizes it; the jackknife remains attractive when θ
// is smooth and g ≪ K bootstrap replicates are affordable. Like all
// linearization methods it is unreliable for non-smooth θ (quantiles,
// extremes) — the diagnostic applies to it unchanged.
type BlockJackknife struct {
	// Blocks is g, the number of delete blocks (0 = 20).
	Blocks int
}

func (j BlockJackknife) blocks() int {
	if j.Blocks <= 1 {
		return 20
	}
	return j.Blocks
}

// Name implements estimator.Estimator.
func (BlockJackknife) Name() string { return "block-jackknife" }

// AppliesTo implements estimator.Estimator: anything evaluable applies, but accuracy
// is only expected for smooth θ.
func (BlockJackknife) AppliesTo(q estimator.Query) bool { return (estimator.Bootstrap{}).AppliesTo(q) }

// Interval implements estimator.Estimator.
func (j BlockJackknife) Interval(_ *rng.Source, values []float64, q estimator.Query, alpha float64) (estimator.Interval, error) {
	n := len(values)
	if n == 0 {
		return estimator.Interval{}, fmt.Errorf("protocol: empty sample")
	}
	if !j.AppliesTo(q) {
		return estimator.Interval{}, fmt.Errorf("%w: UDF without function body", estimator.ErrNotApplicable)
	}
	g := j.blocks()
	if g > n {
		g = n
	}
	center := q.Eval(values)

	// Leave-one-block-out estimates via a weight mask: block rows get
	// weight 0, everything else weight 1.
	w := make([]float64, n)
	ests := make([]float64, 0, g)
	blockSize := n / g
	for b := 0; b < g; b++ {
		lo := b * blockSize
		hi := lo + blockSize
		if b == g-1 {
			hi = n
		}
		for i := range w {
			w[i] = 1
		}
		for i := lo; i < hi; i++ {
			w[i] = 0
		}
		est := q.EvalWeighted(values, w)
		if math.IsNaN(est) {
			return estimator.Interval{}, fmt.Errorf("protocol: jackknife replicate %d degenerate", b)
		}
		ests = append(ests, est)
	}
	mean := stats.Mean(ests)
	sum := 0.0
	for _, e := range ests {
		d := e - mean
		sum += d * d
	}
	gf := float64(len(ests))
	variance := (gf - 1) / gf * sum
	z := stats.StdNormalQuantile(0.5 + alpha/2)
	return estimator.Interval{Center: center, HalfWidth: z * math.Sqrt(variance)}, nil
}
