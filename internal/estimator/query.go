// Package estimator implements the error-estimation procedures compared in
// the paper — closed-form CLT estimates, the nonparametric bootstrap and
// large-deviation bounds — behind a single interface, together with the
// ground-truth ("true confidence interval") machinery and the δ-based
// accuracy evaluation of §3.
package estimator

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// AggKind enumerates the aggregate function computed by a query θ.
type AggKind int

// Aggregate kinds. Count is modelled as the population-scaled sum of an
// indicator column (1 per matching row), which makes it a special case of
// Sum and matches how the engine compiles COUNT(*) over a filtered scan.
const (
	Avg AggKind = iota
	Sum
	Count
	Min
	Max
	Variance
	Stdev
	Percentile
	UDF
)

func (k AggKind) String() string {
	switch k {
	case Avg:
		return "AVG"
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Variance:
		return "VARIANCE"
	case Stdev:
		return "STDEV"
	case Percentile:
		return "PERCENTILE"
	case UDF:
		return "UDF"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// Query is the θ of §2.1: an aggregation function mapping a dataset (the
// values of the aggregation column after filters and projections) to a
// single real number. A Query evaluates both unweighted data and
// Poisson-weighted resamples, so one definition serves the plain answer,
// the bootstrap, and the diagnostic.
type Query struct {
	Kind AggKind

	// Pct is the percentile level in (0, 1) for Kind == Percentile.
	Pct float64

	// PopN is |D|, used to scale Sum and Count estimates up to the
	// population (θ̂ = |D|/n · Σ x). Zero means "report the unscaled
	// sample aggregate".
	PopN int

	// Scale, when nonzero, makes a Sum or Count the fixed-scale sum
	// θ = Scale·Σw·x, with Scale = |D|/|S| for the whole sample. This is a
	// GROUP BY group's sum: its values are only the group's rows, so a
	// resample varies how many of them there are as well as which, and
	// the closed form, which holds that count at the sample's, does not
	// apply (ClosedFormApplicable). It takes precedence over PopN.
	Scale float64

	// Bounds, when non-nil, give known population bounds [lo, hi] of the
	// aggregation column. Large-deviation estimators require them; the
	// paper notes this sensitivity quantity must be precomputed per θ.
	Bounds *[2]float64

	// Fn is the user-defined aggregate for Kind == UDF. It must treat a
	// nil weight slice as all-ones and must ignore rows with weight zero.
	Fn func(values, weights []float64) float64

	// FnName labels the UDF in reports.
	FnName string
}

// Name renders a short human-readable label for the query.
func (q Query) Name() string {
	switch q.Kind {
	case Percentile:
		return fmt.Sprintf("PERCENTILE(%.2g)", q.Pct)
	case UDF:
		if q.FnName != "" {
			return "UDF:" + q.FnName
		}
		return "UDF"
	default:
		return q.Kind.String()
	}
}

// Eval computes θ on unweighted values. A UDF is evaluated with values on
// offer, so it may read their order through OrderOf.
func (q Query) Eval(values []float64) float64 {
	if q.Kind == UDF {
		defer offerOrder(values).release()
	}
	return q.EvalWeighted(values, nil)
}

// EvalWeighted computes θ on a weighted dataset. weights may be nil (all
// ones). A weight of zero means the row is absent; fractional weights are
// permitted and treated as fractional multiplicity.
func (q Query) EvalWeighted(values, weights []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	switch q.Kind {
	case Avg:
		var m stats.Moments
		foldWeighted(&m, values, weights)
		return m.Mean()
	case Sum, Count:
		// Population-scaled sums are self-normalized: θ̂ = |D|·Σwx/Σw.
		// Scaling by the nominal |D|/n instead would let the Poissonized
		// resample's random size leak into the estimate, inflating the
		// bootstrap's variance for any sum whose values don't center on
		// zero (most COUNTs and SUMs) — the estimator would look
		// systematically pessimistic. A group's fixed-scale sum (Scale)
		// wants that variation: how many rows the group has is random.
		var sum, wsum float64
		if weights == nil {
			for _, v := range values {
				sum += v
			}
			wsum = float64(n)
		} else {
			for i, v := range values {
				sum += v * weights[i]
				wsum += weights[i]
			}
		}
		switch {
		case q.Scale != 0:
			return q.Scale * sum
		case q.PopN > 0:
			if wsum == 0 {
				return math.NaN()
			}
			return float64(q.PopN) * sum / wsum
		}
		return sum
	case Min:
		return extreme(values, weights, false)
	case Max:
		return extreme(values, weights, true)
	case Variance:
		var m stats.Moments
		foldWeighted(&m, values, weights)
		return m.Variance()
	case Stdev:
		var m stats.Moments
		foldWeighted(&m, values, weights)
		return m.Stddev()
	case Percentile:
		if weights == nil {
			return stats.Quantile(values, q.Pct)
		}
		return stats.WeightedQuantile(values, weights, q.Pct)
	case UDF:
		if q.Fn == nil {
			return math.NaN()
		}
		return q.Fn(values, weights)
	default:
		return math.NaN()
	}
}

// scale returns the population scale factor |D|/n for Sum/Count queries.
func (q Query) scale(n int) float64 {
	if q.PopN <= 0 || n == 0 {
		return 1
	}
	return float64(q.PopN) / float64(n)
}

func foldWeighted(m *stats.Moments, values, weights []float64) {
	if weights == nil {
		m.AddAll(values)
		return
	}
	for i, v := range values {
		m.AddWeighted(v, weights[i])
	}
}

// extreme is MIN or MAX over the rows present in a weighted dataset, by
// stats.Extremes' rule. As in stats.Moments, a row is absent when its weight
// is <= 0 (a NaN weight is not), and no present row gives NaN.
func extreme(values, weights []float64, wantMax bool) float64 {
	var e stats.Extremes
	for i, x := range values {
		if weights != nil && weights[i] <= 0 {
			continue
		}
		e.Add(x, x)
	}
	if wantMax {
		return e.Max()
	}
	return e.Min()
}

// FusedApplicable reports whether the blocked multi-resample kernel has a
// fused closed-form accumulator for q: the Σw·x / Σw family (AVG, and
// population-scaled, fixed-scale or plain SUM/COUNT). For these the kernel
// never materializes a weight vector; everything else takes the generic
// weighted-θ fallback.
func (q Query) FusedApplicable() bool {
	switch q.Kind {
	case Avg, Sum, Count:
		return true
	default:
		return false
	}
}

// FinalizeFused turns one resample's fused accumulators (wx = Σw·x, w =
// Σw) into θ, matching EvalWeighted's semantics for the fused kinds up to
// floating-point summation order. n is the number of input rows (needed to
// reproduce EvalWeighted's NaN on empty input).
func (q Query) FinalizeFused(wx, w float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	switch q.Kind {
	case Avg:
		if w == 0 {
			return math.NaN()
		}
		return wx / w
	case Sum, Count:
		switch {
		case q.Scale != 0:
			return q.Scale * wx
		case q.PopN > 0:
			if w == 0 {
				return math.NaN()
			}
			return float64(q.PopN) * wx / w
		}
		return wx
	default:
		return math.NaN()
	}
}

// ClosedFormApplicable reports whether a closed-form CLT variance estimate
// is known for the query. Per the paper, this covers COUNT, SUM, AVG,
// VARIANCE and STDEV; MIN, MAX, percentiles and black-box UDFs have no
// known closed form, and neither has a fixed-scale sum (Scale). It is the
// one predicate that decides an aggregate's error estimate: where it holds,
// ClosedForm serves the bar and validates it in the diagnostic; elsewhere
// the bootstrap does both.
func (q Query) ClosedFormApplicable() bool {
	switch q.Kind {
	case Avg, Variance, Stdev:
		return true
	case Sum, Count:
		return q.Scale == 0
	default:
		return false
	}
}

// LargeDeviationApplicable reports whether the large-deviation estimators
// apply: they require the aggregate to be a bounded-sensitivity mean-like
// statistic with known bounds.
func (q Query) LargeDeviationApplicable() bool {
	switch q.Kind {
	case Avg, Sum, Count:
		return true
	default:
		return false
	}
}
