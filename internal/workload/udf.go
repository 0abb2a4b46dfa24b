package workload

import (
	"math"
	"sort"
	"sync"

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

// scratchPool recycles the order-statistic UDFs' working vectors: a bootstrap
// calls one θ thousands of times over inputs of one size, and the expansion
// is dead when θ returns.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// expandSorted materializes the weighted multiset as sorted values in a
// pooled vector, which the caller returns to scratchPool when done with it.
// Order statistics (quantile-style UDFs) need this; weights are expected to
// be small non-negative integers (Poisson multiplicities). The inputs are
// neither modified nor retained.
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

func trimmedMean(frac float64) func(values, weights []float64) float64 {
	return func(values, weights []float64) float64 {
		p := expandSorted(values, weights)
		defer scratchPool.Put(p)
		xs := *p
		n := len(xs)
		if n == 0 {
			return math.NaN()
		}
		cut := int(frac * float64(n))
		trimmed := xs[cut : n-cut]
		if len(trimmed) == 0 {
			trimmed = xs
		}
		return stats.Mean(trimmed)
	}
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
	med := stats.WeightedQuantile(values, allOnes(weights, len(values)), 0.5)
	threshold := 2 * med
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

func allOnes(weights []float64, n int) []float64 {
	if weights != nil {
		return weights
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
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
func medianAbsDev(values, weights []float64) float64 {
	p := expandSorted(values, weights)
	defer scratchPool.Put(p)
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
		p := expandSorted(values, weights)
		defer scratchPool.Put(p)
		xs := *p
		n := len(xs)
		if n == 0 {
			return math.NaN()
		}
		k := int(frac * float64(n))
		if k < 1 {
			k = 1
		}
		return stats.Mean(xs[n-k:])
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
