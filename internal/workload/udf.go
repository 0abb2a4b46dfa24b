package workload

import (
	"math"
	"sort"
	"sync"

	"repro/internal/estimator"
	"repro/internal/stats"
)

// UDFSpec is a named user-defined aggregate together with the metadata the
// trace generator needs: whether the statistic is smooth enough that the
// bootstrap usually succeeds on well-behaved data.
type UDFSpec struct {
	Name string
	// Smooth indicates a statistically well-behaved (asymptotically
	// normal, outlier-insensitive) functional.
	Smooth bool
	// Fn evaluates the aggregate on weighted data; nil weights mean all
	// ones, weight zero means the row is absent.
	Fn func(values, weights []float64) float64
}

// UDFLibrary is the catalog of user-defined aggregates appearing in the
// synthetic traces. It deliberately mixes smooth functionals (trimmed
// means, log-means, fractions) with fragile ones (range, top-decile mean)
// to reproduce the paper's finding that bootstrap error estimation failed
// for 23.19% of UDF queries.
var UDFLibrary = []UDFSpec{
	{Name: "trimmed_mean_5", Smooth: true, Fn: trimmedMean(0.05)},
	{Name: "log_mean", Smooth: true, Fn: logMean},
	{Name: "frac_above_median_x2", Smooth: true, Fn: fracAbove},
	{Name: "clamped_mean", Smooth: true, Fn: clampedMean},
	{Name: "median_abs_dev", Smooth: true, Fn: medianAbsDev},
	{Name: "top_decile_mean", Smooth: false, Fn: topFracMean(0.10)},
	{Name: "range_width", Smooth: false, Fn: rangeWidth},
	{Name: "second_moment", Smooth: false, Fn: secondMoment},
}

// pickUDF draws a UDF: a fragile (non-smooth) one with probability
// pFragile, a smooth one otherwise.
func pickUDF(src interface{ Float64() float64 }, pFragile float64) UDFSpec {
	fragile := src.Float64() < pFragile
	var pool []UDFSpec
	for _, u := range UDFLibrary {
		if u.Smooth != fragile {
			pool = append(pool, u)
		}
	}
	idx := int(src.Float64() * float64(len(pool)))
	if idx >= len(pool) {
		idx = len(pool) - 1
	}
	return pool[idx]
}

// UDFByName returns the named UDF spec, or nil when absent.
func UDFByName(name string) *UDFSpec {
	for i := range UDFLibrary {
		if UDFLibrary[i].Name == name {
			return &UDFLibrary[i]
		}
	}
	return nil
}

// The order-statistic UDFs — trimmed_mean_5, top_decile_mean,
// median_abs_dev, frac_above_median_x2 — read the weighted multiset in
// ascending order. When the engine offers the order of the values
// (estimator.OrderOf: every resample, θ(S), an exact sink) they walk it
// against the weights; otherwise they expand and sort, as a black box must.
// Both ways return the same bits (DESIGN.md §18).

// scratchPool recycles the expand-and-sort path's working vectors: a
// bootstrap with nothing offered calls one θ thousands of times over inputs
// of one size, and the expansion is dead when θ returns. A vector longer
// than maxPooledScratch rows is a whole table answered exactly, one call: it
// is left to the collector, as stats.WeightedQuantile leaves its pairs —
// pooled, every later Get would hand it out and keep its megabytes live.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

const maxPooledScratch = 1 << 16

func putScratch(p *[]float64) {
	if cap(*p) <= maxPooledScratch {
		scratchPool.Put(p)
	}
}

// expandSorted materializes the weighted multiset as sorted values in a
// pooled vector, which the caller returns with putScratch when done with
// it. Weights are expected to be small non-negative integers (Poisson
// multiplicities). The inputs are neither modified nor retained.
func expandSorted(values, weights []float64) *[]float64 {
	p := scratchPool.Get().(*[]float64)
	out := (*p)[:0]
	if weights == nil {
		out = append(out, values...)
	} else {
		for i, v := range values {
			for c := 0.0; c < weights[i]; c++ {
				out = append(out, v)
			}
		}
	}
	sort.Float64s(out)
	*p = out
	return p
}

// sortedView is expandSorted's vector read through an offered order instead
// of built: row order[p] fills copiesOf(order[p]) consecutive positions.
// Values equal under < are the same bits except −0 and +0, which the
// expansion and the order may place differently; every reader below is blind
// to that (sums start at +0, so adding −0 or +0 changes nothing, and a
// median of ±0 is only ever subtracted from or doubled and compared).
type sortedView struct {
	values, weights []float64
	order           []int32
	n               int // the expansion's length
}

// viewOf returns the view of (values, weights), or false when no order is
// offered.
func viewOf(values, weights []float64) (sortedView, bool) {
	order := estimator.OrderOf(values)
	if order == nil || (weights != nil && len(weights) != len(values)) {
		return sortedView{}, false
	}
	s := sortedView{values: values, weights: weights, order: order, n: len(values)}
	if weights != nil {
		s.n = 0
		for _, w := range weights {
			s.n += copies(w)
		}
	}
	return s, true
}

// copies is how many times expandSorted repeats a row of weight w: once for
// each c = 0, 1, 2, … below a finite w: ⌈w⌉, and none for w <= 0. Written
// without a branch on w's sign: a third of Poisson(1) weights are zero, and
// the walks call this once per row.
func copies(w float64) int {
	c := int(w)
	if float64(c) < w {
		c++
	}
	return max(c, 0)
}

func (s *sortedView) copiesOf(row int32) int {
	if s.weights == nil {
		return 1
	}
	return copies(s.weights[row])
}

// seek returns the index into order of the row holding position pos of the
// expansion (0 <= pos < n) and how many of that row's copies precede pos,
// walking in from the nearer end.
func (s *sortedView) seek(pos int) (p, off int) {
	if pos < s.n/2 {
		at := 0
		for p = 0; ; p++ {
			c := s.copiesOf(s.order[p])
			if pos < at+c {
				return p, pos - at
			}
			at += c
		}
	}
	at := s.n
	for p = len(s.order) - 1; ; p-- {
		if at -= s.copiesOf(s.order[p]); pos >= at {
			return p, pos - at
		}
	}
}

// mean is stats.Mean of positions [lo, hi) of the expansion: one addition
// per position, in ascending order, from 0.
func (s *sortedView) mean(lo, hi int) float64 {
	sum := 0.0
	p, off := s.seek(lo)
	for left := hi - lo; left > 0; p++ {
		row := s.order[p]
		v := s.values[row]
		for c := s.copiesOf(row) - off; c > 0 && left > 0; c-- {
			sum += v
			left--
		}
		off = 0
	}
	return sum / float64(hi-lo)
}

// median is stats.QuantileSorted(expansion, 0.5) for n > 0: position
// (n−1)/2, interpolated with the next one when n is even.
func (s *sortedView) median() float64 {
	pos := 0.5 * float64(s.n-1)
	lo := int(math.Floor(pos))
	p, off := s.seek(lo)
	a := s.values[s.order[p]]
	if float64(lo) == pos {
		return a
	}
	// Position lo+1: the same row's next copy, or the next present row.
	b := a
	if off+1 == s.copiesOf(s.order[p]) {
		for p++; s.copiesOf(s.order[p]) == 0; p++ {
		}
		b = s.values[s.order[p]]
	}
	frac := pos - float64(lo)
	return a*(1-frac) + b*frac
}

// deviationMedian is the median of the expansion's |x − med|, which the
// expand-and-sort path computes by sorting the deviations. Floating-point
// subtraction is monotone, so over the rows below med the deviation falls as
// x rises, and from med up it rises: the two runs of the order, merged — the
// first walked down, the second up — give the deviations in ascending order.
// med must be finite: then no deviation is NaN, and math.Abs leaves no −0,
// so the merge's order among equal deviations cannot show in the bits.
func (s *sortedView) deviationMedian(med float64) float64 {
	pos := 0.5 * float64(s.n-1)
	lo := int(math.Floor(pos))
	n := len(s.order)
	dev := func(p int) float64 { return math.Abs(s.values[s.order[p]] - med) }
	up := sort.Search(n, func(p int) bool { return s.values[s.order[p]] >= med })
	down := up - 1
	var dDown, dUp float64 // the deviations at down and up, while in range
	if down >= 0 {
		dDown = dev(down)
	}
	if up < n {
		dUp = dev(up)
	}
	var a float64
	for at := 0; ; {
		var p int
		var d float64
		if up == n || (down >= 0 && dDown <= dUp) {
			p, d = down, dDown
			if down--; down >= 0 {
				dDown = dev(down)
			}
		} else {
			p, d = up, dUp
			if up++; up < n {
				dUp = dev(up)
			}
		}
		c := s.copiesOf(s.order[p])
		if at+c <= lo {
			at += c
			continue
		}
		if at <= lo {
			a = d
			if float64(lo) == pos {
				return a
			}
		}
		if at+c > lo+1 {
			frac := pos - float64(lo)
			return a*(1-frac) + d*frac
		}
		at += c
	}
}

func trimmedMean(frac float64) func(values, weights []float64) float64 {
	return func(values, weights []float64) float64 {
		return sortedMean(values, weights, func(n int) (lo, hi int) {
			cut := int(frac * float64(n))
			if n-cut > cut {
				return cut, n - cut
			}
			return 0, n
		})
	}
}

// sortedMean is the mean of positions [lo, hi) of the weighted multiset in
// ascending order, span choosing them from its size n > 0; NaN when it is
// empty.
func sortedMean(values, weights []float64, span func(n int) (lo, hi int)) float64 {
	if s, ok := viewOf(values, weights); ok {
		if s.n == 0 {
			return math.NaN()
		}
		return s.mean(span(s.n))
	}
	p := expandSorted(values, weights)
	defer putScratch(p)
	xs := *p
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := span(len(xs))
	return stats.Mean(xs[lo:hi])
}

// logMean is the geometric mean via mean of logs; requires positive data
// (negative or zero rows are clamped to a tiny positive value, as the
// production UDF it mimics did).
func logMean(values, weights []float64) float64 {
	var m stats.Moments
	for i, v := range values {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if v < 1e-12 {
			v = 1e-12
		}
		m.AddWeighted(math.Log(v), w)
	}
	return math.Exp(m.Mean())
}

// fracAbove reports the weighted fraction of rows exceeding twice the
// weighted median — a smooth ratio statistic.
func fracAbove(values, weights []float64) float64 {
	threshold := 2 * weightedMedian(values, weights)
	var above, total float64
	for i, v := range values {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		total += w
		if v > threshold {
			above += w
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return above / total
}

// weightedMedian is stats.WeightedQuantile(values, weights, 0.5), nil
// weights counting one each: the nearest-rank walk over the offered order,
// or over one sorted copy. With unit weights the running weight first
// reaches n/2 at position ⌈n/2⌉ − 1 = (n−1)/2.
func weightedMedian(values, weights []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	order := estimator.OrderOf(values)
	switch {
	case weights == nil && order != nil:
		return values[order[(len(values)-1)/2]]
	case weights == nil:
		p := expandSorted(values, nil)
		defer putScratch(p)
		return (*p)[(len(values)-1)/2]
	case order != nil:
		return stats.WeightedQuantileOrdered(values, weights, order, 0.5)
	}
	return stats.WeightedQuantile(values, weights, 0.5)
}

// clampedMean averages values clamped into [0, 1000] — a bounded, smooth
// statistic that even heavy tails cannot break.
func clampedMean(values, weights []float64) float64 {
	var m stats.Moments
	for i, v := range values {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if v < 0 {
			v = 0
		} else if v > 1000 {
			v = 1000
		}
		m.AddWeighted(v, w)
	}
	return m.Mean()
}

// medianAbsDev is the median absolute deviation from the median — robust.
// An infinite median (x − med is NaN for x = med) is left to the
// expand-and-sort path, where sort.Float64s places those NaNs.
func medianAbsDev(values, weights []float64) float64 {
	if s, ok := viewOf(values, weights); ok {
		if s.n == 0 {
			return math.NaN()
		}
		if med := s.median(); !math.IsInf(med, 0) && !math.IsNaN(med) {
			return s.deviationMedian(med)
		}
	}
	p := expandSorted(values, weights)
	defer putScratch(p)
	xs := *p
	if len(xs) == 0 {
		return math.NaN()
	}
	// The median is read off before the deviations overwrite the expansion.
	med := stats.QuantileSorted(xs, 0.5)
	for i, v := range xs {
		xs[i] = math.Abs(v - med)
	}
	sort.Float64s(xs)
	return stats.QuantileSorted(xs, 0.5)
}

// topFracMean averages the top frac of the data — tail-sensitive, so it
// inherits MAX-like fragility on heavy-tailed columns.
func topFracMean(frac float64) func(values, weights []float64) float64 {
	return func(values, weights []float64) float64 {
		return sortedMean(values, weights, func(n int) (lo, hi int) {
			return n - max(int(frac*float64(n)), 1), n
		})
	}
}

// rangeWidth is max − min: maximally outlier-sensitive; error estimation
// for it fails on almost anything interesting.
func rangeWidth(values, weights []float64) float64 {
	var m stats.Moments
	for i, v := range values {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		m.AddWeighted(v, w)
	}
	return m.Max() - m.Min()
}

// secondMoment is E[X²] — finite-sample fine, but on Pareto tails its
// sampling distribution is wildly skewed.
func secondMoment(values, weights []float64) float64 {
	var m stats.Moments
	for i, v := range values {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		m.AddWeighted(v*v, w)
	}
	return m.Mean()
}
