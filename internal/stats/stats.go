// Package stats provides the statistical primitives the AQP pipeline is
// built on: streaming moments (shifted sums), quantiles (exact and sketched),
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

// Moments accumulates count, mean, variance, min and max in one pass by
// shifted sums: the first value added is the shift k, and the fold keeps the
// total weight n, Σw(x−k) and Σw(x−k)² — a subtraction, a multiply and two
// additions per row, no division. Mean, Variance and SampleVariance divide
// when they are read. The zero value is an empty accumulator ready for use.
//
// The bound: over n rows, the mean is within O(n·ε)·(|mean| + √(σ² + (k−mean)²))
// of the exact one and the population variance within O(n·ε)·(σ² + (k−mean)²)
// (ε = 2⁻⁵³), where the (k−mean)² term is what the subtraction at read time
// cancels. k is a value of the data, so w_k·(k−mean)² ≤ Σw(x−mean)², that is
// (k−mean)² ≤ n·σ² for unit weights, and about σ² for a typical first row:
// data at 1e9 + N(0,1) keeps its variance to a few n·ε, where the unshifted
// Σx² − (Σx)²/n would lose every digit. TestMomentsMatchTwoPass holds the
// fold to this bound, and Merge to it plus the rounding of the difference of
// the two sides' means.
type Moments struct {
	n   float64 // total weight
	k   float64 // the shift: the first value added (after Merge, the mean)
	s1  float64 // Σw(x−k)
	s2  float64 // Σw(x−k)²
	ext Extremes
}

// Extremes is MIN and MAX by the one rule every fold of them follows: the
// first value added seeds both ends, and a later one replaces an end only
// when strictly beyond it. So a NaN counts only when it comes first, and of
// equal extremes, -0 and +0 included, the first one seen stays. The zero
// value has seen nothing.
type Extremes struct {
	lo, hi float64
	seen   bool
}

// Add folds the range [lo, hi]: a single value x as Add(x, x), or a block's
// envelope.
func (e *Extremes) Add(lo, hi float64) {
	if !e.seen {
		e.lo, e.hi, e.seen = lo, hi, true
		return
	}
	if lo < e.lo {
		e.lo = lo
	}
	if hi > e.hi {
		e.hi = hi
	}
}

// Min returns the smallest value added, or NaN when none was.
func (e *Extremes) Min() float64 {
	if !e.seen {
		return math.NaN()
	}
	return e.lo
}

// Max returns the largest value added, or NaN when none was.
func (e *Extremes) Max() float64 {
	if !e.seen {
		return math.NaN()
	}
	return e.hi
}

// Add folds a single observation into the accumulator. It is
// AddWeighted(x, 1) — the same operations, since multiplying by 1 is exact —
// written out so that it inlines into a per-row loop, such as a grouped
// fold whose rows alternate between accumulators.
func (m *Moments) Add(x float64) {
	m.n++
	if !m.ext.seen {
		m.k = x
		m.ext = Extremes{x, x, true}
		return
	}
	if x < m.ext.lo {
		m.ext.lo = x
	}
	if x > m.ext.hi {
		m.ext.hi = x
	}
	d := x - m.k
	m.s1 += d
	m.s2 += float64(d * d)
}

// AddWeighted folds an observation with non-negative weight w. Zero-weight
// observations are ignored entirely (they do not affect min/max), matching
// the semantics of Poissonized resampling where weight 0 means "the row is
// absent from this resample".
//
// The first observation becomes the shift and adds nothing to either sum.
// The float64 conversions keep each product rounded on its own (Go may fuse
// a multiply into the add that follows), so Add and AddAll, written the same
// way, give the same bits on every platform.
func (m *Moments) AddWeighted(x, w float64) {
	if w <= 0 {
		return
	}
	m.n += w
	if !m.ext.seen {
		m.k = x
		m.ext.Add(x, x)
		return
	}
	m.ext.Add(x, x)
	d := x - m.k
	wd := float64(w * d)
	m.s1 += wd
	m.s2 += float64(wd * d)
}

// AddAll folds the values of xs in order, with unit weights. It performs the
// operations Add performs on each value, in the same order and on the one
// chain of each accumulator, so it leaves the same bits (of a NaN, perhaps
// another payload; see canonical): a block-streamed fold of Add calls and a
// fold of the whole vector read the same.
func (m *Moments) AddAll(xs []float64) {
	if len(xs) == 0 {
		return
	}
	if !m.ext.seen {
		m.Add(xs[0])
		xs = xs[1:]
	}
	n, k, s1, s2, lo, hi := m.n, m.k, m.s1, m.s2, m.ext.lo, m.ext.hi
	for _, x := range xs {
		n++
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		d := x - k
		s1 += d
		s2 += float64(d * d)
	}
	m.n, m.s1, m.s2, m.ext.lo, m.ext.hi = n, s1, s2, lo, hi
}

// Merge folds another accumulator into this one (parallel reduction): each
// side's mean and centred sum of squares, combined by Chan, Golub and
// LeVeque's pairwise update. The merged mean becomes the shift, which is at
// least as close to the data as either side's first value.
func (m *Moments) Merge(o *Moments) {
	if !o.ext.seen {
		return
	}
	if !m.ext.seen {
		*m = *o
		return
	}
	m.ext.Add(o.ext.lo, o.ext.hi)
	ma, mb := m.Mean(), o.Mean()
	n := m.n + o.n
	delta := mb - ma
	m2 := m.m2() + o.m2() + delta*delta*m.n*o.n/n
	m.n, m.k, m.s1, m.s2 = n, ma+delta*o.n/n, 0, m2
}

// m2 is the centred sum of squares Σw(x−mean)²: Σw(x−k)² less the shift's
// share (Σw(x−k))²/n. Rounding can leave it a hair under zero, which reads
// as zero. A NaN or infinite shift with nothing after it — one such row —
// has no spread to report: NaN, as every fold over a NaN or an infinity
// gives.
func (m *Moments) m2() float64 {
	c := m.s2 - m.s1*(m.s1/m.n)
	switch {
	case math.IsNaN(m.k) || math.IsInf(m.k, 0):
		return math.NaN()
	case c < 0:
		return 0
	}
	return c
}

// canonical is x, or math.NaN() for every NaN. Which NaN payload a fold over
// NaN or infinite rows ends with depends on the operand order the compiler
// chose, which Add and AddAll need not share; their reads agree.
func canonical(x float64) float64 {
	if x != x {
		return math.NaN()
	}
	return x
}

// Mean returns the weighted mean, or NaN when empty.
func (m *Moments) Mean() float64 {
	if !m.ext.seen {
		return math.NaN()
	}
	return canonical(m.k + m.s1/m.n)
}

// Variance returns the population variance, or NaN when empty.
func (m *Moments) Variance() float64 {
	if !m.ext.seen || m.n == 0 {
		return math.NaN()
	}
	return canonical(m.m2() / m.n)
}

// SampleVariance returns the Bessel-corrected sample variance, or NaN when
// fewer than two units of weight have been observed.
func (m *Moments) SampleVariance() float64 {
	if !m.ext.seen || m.n <= 1 {
		return math.NaN()
	}
	return canonical(m.m2() / (m.n - 1))
}

// Stddev returns the population standard deviation.
func (m *Moments) Stddev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation, or NaN when empty.
func (m *Moments) Min() float64 { return m.ext.Min() }

// Max returns the largest observation, or NaN when empty.
func (m *Moments) Max() float64 { return m.ext.Max() }

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
