package estimator

import (
	"math"
	"slices"
	"sync"

	"repro/internal/stats"
)

// Sort-once order statistics. Query.EvalWeighted answers MIN, MAX and
// PERCENTILE over a resample from scratch: a Welford fold to read one field,
// or an n-pair allocation and sort. Under K resamples of one value vector —
// the query-level bootstrap, and every subsample of the diagnostic's ladder
// when ξ is the bootstrap — only the weights change, so the vector is sorted
// once and each resample walks that order against its weights.

// sortOnce is the ascending order of one value vector: order[p] is the row
// holding the p-th smallest value. Equal values keep their row order.
type sortOnce struct {
	kind  AggKind
	pct   float64
	order []int32
}

var sortOncePool = sync.Pool{New: func() any { return new(sortOnce) }}

// ResampleTheta returns the θ to evaluate on Poisson-weighted resamples of
// values — the function kernel.Generic takes — and a release the caller runs
// once the last resample is done. For MIN, MAX and PERCENTILE over a
// NaN-free vector, θ reads an order of values built here once: it must be
// given these values with a weight vector of their length, and may be called
// concurrently. Every other query, and a vector holding a NaN (whose sort
// order is undefined), gets q.EvalWeighted itself.
//
// θ returns the bits q.EvalWeighted returns for the same weights. The
// extremes are found by the same comparisons. The nearest-rank walk sums the
// same positive weights up to the same target, in an order that differs from
// stats.WeightedQuantile's only among equal values, which exact sums of
// integer multiplicities cannot see. (Fractional weights, or a vector holding
// both −0 and +0, are outside that argument: WeightedQuantile's own order
// among equals is unspecified.)
func (q Query) ResampleTheta(values []float64) (theta func(values, weights []float64) float64, release func()) {
	orderStat := q.Kind == Min || q.Kind == Max || q.Kind == Percentile
	if !orderStat || len(values) == 0 || len(values) > math.MaxInt32 ||
		slices.ContainsFunc(values, math.IsNaN) {
		return q.EvalWeighted, func() {}
	}
	s := sortOncePool.Get().(*sortOnce)
	s.build(q, values)
	return s.eval, func() { sortOncePool.Put(s) }
}

func (s *sortOnce) build(q Query, values []float64) {
	n := len(values)
	s.kind, s.pct = q.Kind, q.Pct
	if cap(s.order) < n {
		s.order = make([]int32, n)
	}
	s.order = s.order[:n]
	for i := range s.order {
		s.order[i] = int32(i)
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		switch va, vb := values[a], values[b]; {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return int(a - b)
	})
}

// eval is θ on the resample of values whose multiplicities are weights.
func (s *sortOnce) eval(values, weights []float64) float64 {
	switch s.kind {
	case Min:
		// Moments keeps the first of equal minima in row order, which is
		// the first of them in the order.
		for _, row := range s.order {
			if weights[row] > 0 {
				return values[row]
			}
		}
		return math.NaN()
	case Max:
		for p := len(s.order) - 1; p >= 0; p-- {
			if weights[s.order[p]] <= 0 {
				continue
			}
			// Moments keeps the first of equal maxima in row order too: the
			// lowest present position of the run of equals.
			top := values[s.order[p]]
			for t := p - 1; t >= 0 && values[s.order[t]] == top; t-- {
				if weights[s.order[t]] > 0 {
					p = t
				}
			}
			return values[s.order[p]]
		}
		return math.NaN()
	}
	// PERCENTILE: stats.WeightedQuantile's nearest-rank rule. Absent rows
	// are added rather than branched around — adding zero changes no sum —
	// so the two loops carry no unpredictable branch.
	if s.pct < 0 || s.pct > 1 {
		return math.NaN()
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return stats.WeightedQuantile(values, weights, s.pct)
		}
		total += w
	}
	if total == 0 {
		return math.NaN()
	}
	target := s.pct * total
	cum := 0.0
	for _, row := range s.order {
		w := weights[row]
		cum += w
		if cum >= target && w > 0 {
			return values[row]
		}
	}
	// Rounding left the running sum short of the target: the largest
	// present value, as WeightedQuantile answers.
	for p := len(s.order) - 1; p >= 0; p-- {
		if row := s.order[p]; weights[row] > 0 {
			return values[row]
		}
	}
	return math.NaN()
}
