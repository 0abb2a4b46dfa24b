package stats

import (
	"math"
	"sort"
)

// Histogram, ECDF and GKSketch.Merge are test-only: no engine path reads a
// bucketed or empirical CDF, or merges two sketches.

// Histogram is a fixed-width bucket histogram over [lo, hi); values outside
// the range land in clamped edge buckets.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
	count   int
}

// NewHistogram creates a histogram with n buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n)}
}

// Add records a value.
func (h *Histogram) Add(x float64) {
	n := len(h.Buckets)
	idx := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	h.Buckets[idx]++
	h.count++
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int { return h.count }

// CDF returns, for each bucket upper edge, the fraction of recorded values
// at or below it.
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.Buckets))
	cum := 0
	for i, c := range h.Buckets {
		cum += c
		if h.count > 0 {
			out[i] = float64(cum) / float64(h.count)
		}
	}
	return out
}

// ECDF returns an empirical CDF evaluator for xs. The returned function
// reports the fraction of observations <= x.
func ECDF(xs []float64) func(float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	return func(x float64) float64 {
		if len(sorted) == 0 {
			return math.NaN()
		}
		idx := sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
		return float64(idx) / n
	}
}

// Merge folds another sketch into this one (parallel percentile
// reduction). The merged rank error is bounded by the sum of the two
// sketches' errors; both sketches should be built with the same eps. The
// other sketch is flushed but otherwise unmodified.
func (s *GKSketch) Merge(o *GKSketch) {
	s.flush()
	o.flush()
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		s.n = o.n
		s.entries = append(s.entries[:0], o.entries...)
		return
	}
	// Merge the two sorted entry lists; deltas grow by the counterpart's
	// local uncertainty, per Greenwald–Khanna merge semantics.
	merged := make([]gkEntry, 0, len(s.entries)+len(o.entries))
	i, j := 0, 0
	for i < len(s.entries) || j < len(o.entries) {
		switch {
		case j >= len(o.entries):
			merged = append(merged, s.entries[i])
			i++
		case i >= len(s.entries):
			merged = append(merged, o.entries[j])
			j++
		case s.entries[i].v <= o.entries[j].v:
			merged = append(merged, s.entries[i])
			i++
		default:
			merged = append(merged, o.entries[j])
			j++
		}
	}
	s.entries = merged
	s.n += o.n
	s.compress()
}
