// Package stats provides the statistical primitives the AQP pipeline is
// built on: streaming moments (Welford), quantiles (exact and sketched),
// empirical distributions, the normal and Student-t distributions, and the
// symmetric centered interval construction from §2.2 of the paper.
package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
)

// Moments accumulates count, mean, variance, min and max in one pass using
// Welford's numerically stable update. The zero value is an empty
// accumulator ready for use.
type Moments struct {
	n     float64 // total weight
	mean  float64
	m2    float64 // sum of squared deviations (times weight)
	min   float64
	max   float64
	empty bool // tracks "no observations yet"; inverted so zero value works
	seen  bool
}

// Add folds a single observation into the accumulator.
func (m *Moments) Add(x float64) { m.AddWeighted(x, 1) }

// AddWeighted folds an observation with non-negative weight w. Zero-weight
// observations are ignored entirely (they do not affect min/max), matching
// the semantics of Poissonized resampling where weight 0 means "the row is
// absent from this resample".
func (m *Moments) AddWeighted(x, w float64) {
	if w <= 0 {
		return
	}
	if !m.seen {
		m.min, m.max = x, x
		m.seen = true
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n += w
	delta := x - m.mean
	m.mean += delta * w / m.n
	m.m2 += w * delta * (x - m.mean)
}

// Merge folds another accumulator into this one (parallel reduction).
func (m *Moments) Merge(o *Moments) {
	if !o.seen {
		return
	}
	if !m.seen {
		*m = *o
		return
	}
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	n := m.n + o.n
	delta := o.mean - m.mean
	m.mean += delta * o.n / n
	m.m2 += o.m2 + delta*delta*m.n*o.n/n
	m.n = n
}

// Mean returns the weighted mean, or NaN when empty.
func (m *Moments) Mean() float64 {
	if !m.seen {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the population variance, or NaN when empty.
func (m *Moments) Variance() float64 {
	if !m.seen || m.n == 0 {
		return math.NaN()
	}
	return m.m2 / m.n
}

// SampleVariance returns the Bessel-corrected sample variance, or NaN when
// fewer than two units of weight have been observed.
func (m *Moments) SampleVariance() float64 {
	if !m.seen || m.n <= 1 {
		return math.NaN()
	}
	return m.m2 / (m.n - 1)
}

// Stddev returns the population standard deviation.
func (m *Moments) Stddev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation, or NaN when empty.
func (m *Moments) Min() float64 {
	if !m.seen {
		return math.NaN()
	}
	return m.min
}

// Max returns the largest observation, or NaN when empty.
func (m *Moments) Max() float64 {
	if !m.seen {
		return math.NaN()
	}
	return m.max
}

// Mean returns the arithmetic mean of xs, or NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN when empty.
func Variance(xs []float64) float64 {
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	return m.Variance()
}

// SampleVariance returns the Bessel-corrected variance of xs.
func SampleVariance(xs []float64) float64 {
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	return m.SampleVariance()
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs, or NaN when empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or NaN when empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// The input is not modified. It returns NaN for empty input or q outside
// [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for pre-sorted input, avoiding the copy.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// weightedValue is one present row of a weighted dataset.
type weightedValue struct{ x, w float64 }

// weightedScratch recycles WeightedQuantile's row vector: a bootstrap calls
// it once per resample on vectors of one length. Vectors past
// maxPooledWeighted rows are left to the collector — that is a whole table
// answered exactly, one call, and a pool would keep its megabytes live for
// two more collections.
var weightedScratch = sync.Pool{New: func() any { return new([]weightedValue) }}

const maxPooledWeighted = 1 << 16

// WeightedQuantile returns the q-quantile of (xs, ws) where ws are
// non-negative weights (e.g. Poissonized resample multiplicities). Rows
// with zero weight are ignored. Returns NaN when total weight is zero.
func WeightedQuantile(xs, ws []float64, q float64) float64 {
	if len(xs) != len(ws) || len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	var items []weightedValue
	if len(xs) > maxPooledWeighted {
		items = make([]weightedValue, 0, len(xs))
	} else {
		scratch := weightedScratch.Get().(*[]weightedValue)
		defer weightedScratch.Put(scratch)
		if cap(*scratch) < len(xs) {
			*scratch = make([]weightedValue, 0, len(xs))
		}
		items = (*scratch)[:0]
	}
	total := 0.0
	for i, x := range xs {
		if ws[i] > 0 {
			items = append(items, weightedValue{x, ws[i]})
			total += ws[i]
		}
	}
	if total == 0 {
		return math.NaN()
	}
	// The order among equal values is left to the sort: the value at which
	// the running weight crosses the target is the same whichever comes first.
	slices.SortFunc(items, func(a, b weightedValue) int { return cmp.Compare(a.x, b.x) })
	target := q * total
	cum := 0.0
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.x
		}
	}
	return items[len(items)-1].x
}

// WeightedQuantileOrdered is WeightedQuantile for callers holding the
// ascending order of xs (order[p] is the row with the p-th smallest value):
// it walks the order against ws instead of collecting and sorting the present
// rows, and allocates nothing. Absent rows are added rather than branched
// around — adding zero changes no sum — so the two loops carry no
// unpredictable branch.
//
// It returns WeightedQuantile's bits when ws holds integer multiplicities:
// the total is the same sum in the same row order, and the running weight is
// accumulated in an order that can differ from WeightedQuantile's only among
// equal values, where exact integer partial sums cannot see it. (Among equal
// values whose bits differ — a column holding both −0 and +0 — the two may
// pick different ones, as two runs of WeightedQuantile's own sort may.) A
// negative or NaN weight takes WeightedQuantile itself.
func WeightedQuantileOrdered(xs, ws []float64, order []int32, q float64) float64 {
	if len(xs) != len(ws) || len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	total := 0.0
	for _, w := range ws {
		if !(w >= 0) {
			return WeightedQuantile(xs, ws, q)
		}
		total += w
	}
	if total == 0 {
		return math.NaN()
	}
	target := q * total
	cum := 0.0
	for _, row := range order {
		w := ws[row]
		cum += w
		if cum >= target && w > 0 {
			return xs[row]
		}
	}
	// Rounding left the running sum short of the target: the largest present
	// value, as WeightedQuantile answers.
	for p := len(order) - 1; p >= 0; p-- {
		if row := order[p]; ws[row] > 0 {
			return xs[row]
		}
	}
	return math.NaN()
}

// SymmetricHalfWidth returns the half-width a of the smallest interval
// [center-a, center+a] that covers at least ceil(alpha * len(xs)) of the
// values xs. This is the "smallest symmetric interval around θ(S) that
// covers α·p elements" construction used both for true confidence
// intervals and inside the diagnostic (Algorithm 1).
//
// It returns NaN for empty input or alpha outside (0, 1].
func SymmetricHalfWidth(xs []float64, center, alpha float64) float64 {
	return SymmetricHalfWidthInPlace(append([]float64(nil), xs...), center, alpha)
}

// SymmetricHalfWidthInPlace is SymmetricHalfWidth for callers that own xs
// and are done with it: xs is overwritten with the sorted absolute
// deviations instead of a copy being allocated for them.
func SymmetricHalfWidthInPlace(xs []float64, center, alpha float64) float64 {
	n := len(xs)
	if n == 0 || alpha <= 0 || alpha > 1 {
		return math.NaN()
	}
	for i, x := range xs {
		xs[i] = math.Abs(x - center)
	}
	sort.Float64s(xs)
	k := int(math.Ceil(alpha * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return xs[k-1]
}
