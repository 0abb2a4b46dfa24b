package protocol

import (
	"fmt"
	"math"

	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Bound selects the concentration inequality used by LargeDeviation.
type Bound int

// Supported large-deviation inequalities.
const (
	// Hoeffding uses only the data range; the loosest and most common
	// choice (used by online aggregation and Aqua).
	Hoeffding Bound = iota
	// Bernstein additionally exploits the sample variance and is tighter
	// when the variance is small relative to the range.
	Bernstein
)

func (b Bound) String() string {
	switch b {
	case Hoeffding:
		return "hoeffding"
	case Bernstein:
		return "bernstein"
	default:
		return fmt.Sprintf("Bound(%d)", int(b))
	}
}

// LargeDeviation produces confidence intervals from distribution-free tail
// bounds (§2.3.3). The intervals are guaranteed to have coverage at least
// α but are typically far wider than the true interval — the extreme
// pessimism visible in Fig. 1. The bounds need the data's range, which
// the paper notes must be precomputed per θ; the observed sample range
// stands in for it (optimistic for genuinely unbounded data).
type LargeDeviation struct {
	Bound Bound
}

// Name implements estimator.Estimator.
func (ld LargeDeviation) Name() string { return "large-deviation/" + ld.Bound.String() }

// AppliesTo implements estimator.Estimator.
func (LargeDeviation) AppliesTo(q estimator.Query) bool { return largeDeviationApplicable(q) }

// largeDeviationApplicable reports whether the large-deviation estimators
// apply: they require the aggregate to be a bounded-sensitivity mean-like
// statistic.
func largeDeviationApplicable(q estimator.Query) bool {
	switch q.Kind {
	case estimator.Avg, estimator.Sum, estimator.Count:
		return true
	default:
		return false
	}
}

// Interval implements estimator.Estimator.
func (ld LargeDeviation) Interval(_ *rng.Source, values []float64, q estimator.Query, alpha float64) (estimator.Interval, error) {
	if !ld.AppliesTo(q) {
		return estimator.Interval{}, fmt.Errorf("%w: no tail bound derived for %s",
			estimator.ErrNotApplicable, q.Name())
	}
	n := len(values)
	if n == 0 {
		return estimator.Interval{}, fmt.Errorf("protocol: empty sample")
	}
	var m stats.Moments
	m.AddAll(values)
	rangeWidth := m.Max() - m.Min()
	delta := 1 - alpha
	if delta <= 0 {
		delta = 1e-12
	}
	logTerm := math.Log(2 / delta)
	nf := float64(n)

	var meanHalf float64 // half-width for the mean of the sample
	switch ld.Bound {
	case Hoeffding:
		// P(|x̄−μ| ≥ t) ≤ 2exp(−2nt²/(b−a)²)  ⇒  t = (b−a)√(ln(2/δ)/2n).
		meanHalf = rangeWidth * math.Sqrt(logTerm/(2*nf))
	case Bernstein:
		// |x̄−μ| ≤ √(2σ²ln(2/δ)/n) + (b−a)ln(2/δ)/(3n) w.p. ≥ 1−δ.
		s2 := m.SampleVariance()
		if math.IsNaN(s2) {
			s2 = 0
		}
		meanHalf = math.Sqrt(2*s2*logTerm/nf) + rangeWidth*logTerm/(3*nf)
	default:
		return estimator.Interval{}, fmt.Errorf("protocol: unknown bound %v", ld.Bound)
	}

	center := q.Eval(values)
	half := meanHalf
	if q.Kind == estimator.Sum || q.Kind == estimator.Count {
		// θ̂ = (|D|/n)·n·x̄ ⇒ the bound scales by |D|, or by n for an
		// unscaled sum.
		scale := 1.0
		if q.PopN > 0 {
			scale = float64(q.PopN) / nf
		}
		half = meanHalf * scale * nf
	}
	return estimator.Interval{Center: center, HalfWidth: half}, nil
}
