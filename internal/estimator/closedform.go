package estimator

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/stats"
)

// ClosedForm estimates confidence intervals from a normal approximation of
// the sampling distribution with a closed-form variance estimate (§2.3.2).
// It covers AVG, SUM, COUNT, VARIANCE and STDEV; other aggregates have no
// known closed form and return ErrNotApplicable.
type ClosedForm struct {
	// UseStudentT applies a t-distribution critical value instead of the
	// normal one; this matters only for the small subsamples used inside
	// the diagnostic.
	UseStudentT bool
}

// Name implements Estimator.
func (ClosedForm) Name() string { return "closed-form" }

// AppliesTo implements Estimator.
func (ClosedForm) AppliesTo(q Query) bool { return q.ClosedFormApplicable() }

// Interval implements Estimator. The returned interval is centered on the
// sample estimate θ(S) with half-width z·σ̂, where σ̂ is the closed-form
// standard error for the aggregate. Both come out of one pass over values,
// and Center holds the bits q.Eval(values) returns.
func (cf ClosedForm) Interval(_ *rng.Source, values []float64, q Query, alpha float64) (Interval, error) {
	if !cf.AppliesTo(q) {
		return Interval{}, fmt.Errorf("%w: %s has no closed form", ErrNotApplicable, q.Name())
	}
	n := len(values)
	if n == 0 {
		return Interval{}, fmt.Errorf("estimator: empty sample")
	}
	theta, se, err := closedFormEstimate(values, q)
	if err != nil {
		return Interval{}, err
	}
	crit := critValue(alpha, float64(n-1), cf.UseStudentT)
	return Interval{Center: theta, HalfWidth: crit * se}, nil
}

func critValue(alpha, df float64, useT bool) float64 {
	p := 0.5 + alpha/2
	if useT && df >= 1 {
		return studentTCrit(p, df)
	}
	return stats.StdNormalQuantile(p)
}

// critMemo remembers recent Student-t critical values, direct-mapped by df.
// The diagnostic asks for one per ξ interval — hundreds per diagnosed
// aggregate — yet only for the few df of its subsample ladder; each is the
// same stats.StudentTQuantile bits, computed once while its slot holds it.
var critMemo [64]atomic.Pointer[critEntry]

type critEntry struct{ p, df, v float64 }

func studentTCrit(p, df float64) float64 {
	slot := &critMemo[uint64(df)%uint64(len(critMemo))]
	if e := slot.Load(); e != nil && e.p == p && e.df == df {
		return e.v
	}
	v := stats.StudentTQuantile(p, df)
	slot.Store(&critEntry{p: p, df: df, v: v})
	return v
}

// closedFormEstimate returns θ(S) and σ̂, the estimated standard deviation of
// the sampling distribution of θ(S), for the closed-form aggregates. θ is what
// Query.EvalWeighted computes on unweighted values, from the same additions
// in the same order: the shifted-sum fold σ̂ needs anyway (stats.Moments.AddAll,
// no division per row) answers AVG, VARIANCE and STDEV, and SUM and COUNT
// take their plain running sum in a loop of their own.
func closedFormEstimate(values []float64, q Query) (theta, se float64, err error) {
	n := float64(len(values))
	var m stats.Moments
	m.AddAll(values)
	s2 := m.SampleVariance()
	if math.IsNaN(s2) {
		s2 = 0 // single observation: no spread information
	}
	switch q.Kind {
	case Avg:
		// Var(x̄) = s²/n.
		return m.Mean(), math.Sqrt(s2 / n), nil
	case Sum, Count:
		// θ̂ = scale·Σx = scale·n·x̄, so σ̂ = scale·n·s/√n = scale·s·√n.
		sum := 0.0
		for _, v := range values {
			sum += v
		}
		return q.FinalizeFused(sum, n, len(values)), q.scale(len(values)) * math.Sqrt(s2*n), nil
	case Variance:
		// Var(s²) ≈ (μ₄ − σ⁴)/n (asymptotic; e.g. Rice §6).
		mu4 := centralMoment4(values, m.Mean())
		v := (mu4 - s2*s2) / n
		if v < 0 {
			v = 0
		}
		return m.Variance(), math.Sqrt(v), nil
	case Stdev:
		// Delta method: Var(s) ≈ Var(s²) / (4σ²).
		mu4 := centralMoment4(values, m.Mean())
		v := (mu4 - s2*s2) / n
		if v < 0 {
			v = 0
		}
		if s2 == 0 {
			return m.Stddev(), 0, nil
		}
		return m.Stddev(), math.Sqrt(v / (4 * s2)), nil
	default:
		return 0, 0, fmt.Errorf("%w: %s", ErrNotApplicable, q.Name())
	}
}

func centralMoment4(values []float64, mean float64) float64 {
	sum := 0.0
	for _, v := range values {
		d := v - mean
		d2 := d * d
		sum += d2 * d2
	}
	return sum / float64(len(values))
}
