package harness

import (
	"math"
	"sort"
)

// Quantile is the one quantile definition the benchmark uses everywhere:
// nearest-rank on a sorted copy — the smallest value with at least q·n
// values at or below it. It always returns an element of xs (NaN when xs is
// empty), so a reported percentile is a latency that was measured.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), q)]
}

// rank is the zero-based nearest-rank index of the q-quantile of n values.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }
