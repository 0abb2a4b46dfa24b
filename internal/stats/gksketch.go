package stats

import (
	"math"
	"sort"
)

// GKSketch is a Greenwald–Khanna ε-approximate streaming quantile summary.
// After observing n values, Quantile(q) returns a value whose rank is
// within ±εn of the true q-quantile rank while storing O((1/ε)·log(εn))
// tuples. The engine's PERCENTILE aggregate uses it so percentile queries
// stream like any other aggregate instead of buffering whole columns.
type GKSketch struct {
	eps     float64
	n       int
	entries []gkEntry // sorted by v
	buf     []float64 // small insertion buffer, merged on compress
}

type gkEntry struct {
	v     float64
	g     int // rank gap to previous entry's min rank
	delta int // uncertainty in this entry's rank
}

// NewGKSketch returns a sketch with rank error εn. Typical eps: 0.005.
func NewGKSketch(eps float64) *GKSketch {
	if eps <= 0 || eps >= 1 {
		panic("stats: GK sketch eps must be in (0, 1)")
	}
	return &GKSketch{eps: eps}
}

// Add inserts a value into the sketch.
func (s *GKSketch) Add(v float64) {
	s.buf = append(s.buf, v)
	if len(s.buf) >= s.bufCap() {
		s.flush()
	}
}

func (s *GKSketch) bufCap() int {
	c := int(1 / (2 * s.eps))
	if c < 16 {
		c = 16
	}
	return c
}

func (s *GKSketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	merged := make([]gkEntry, 0, len(s.entries)+len(s.buf))
	bi := 0
	for _, e := range s.entries {
		for bi < len(s.buf) && s.buf[bi] <= e.v {
			merged = append(merged, s.newEntry(s.buf[bi], len(merged) == 0))
			bi++
		}
		merged = append(merged, e)
	}
	for bi < len(s.buf) {
		merged = append(merged, gkEntry{v: s.buf[bi], g: 1, delta: 0})
		bi++
	}
	s.n += len(s.buf)
	s.buf = s.buf[:0]
	s.entries = merged
	s.compress()
}

func (s *GKSketch) newEntry(v float64, first bool) gkEntry {
	delta := 0
	if !first && s.n > 0 {
		delta = int(2*s.eps*float64(s.n)) - 1
		if delta < 0 {
			delta = 0
		}
	}
	return gkEntry{v: v, g: 1, delta: delta}
}

func (s *GKSketch) compress() {
	if len(s.entries) < 3 {
		return
	}
	threshold := int(2 * s.eps * float64(s.n))
	out := s.entries[:0]
	out = append(out, s.entries[0])
	for i := 1; i < len(s.entries)-1; i++ {
		e := s.entries[i]
		next := s.entries[i+1]
		if e.g+next.g+next.delta <= threshold {
			// Merge e into next (in place in the original slice so the
			// loop sees the accumulated g).
			s.entries[i+1].g += e.g
			continue
		}
		out = append(out, e)
	}
	out = append(out, s.entries[len(s.entries)-1])
	s.entries = out
}

// Quantile returns an ε-approximate q-quantile of the observed values. It
// returns NaN when the sketch is empty or q lies outside [0, 1].
func (s *GKSketch) Quantile(q float64) float64 {
	s.flush()
	if s.n == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	margin := int(math.Ceil(s.eps * float64(s.n)))
	rmin := 0
	for i, e := range s.entries {
		rmin += e.g
		if i == len(s.entries)-1 || rmin+e.delta >= rank-margin && rmin >= rank-margin {
			return e.v
		}
		// Peek: if the next entry would overshoot rank+margin, stop here.
		next := s.entries[i+1]
		if rmin+next.g+next.delta > rank+margin {
			return e.v
		}
	}
	return s.entries[len(s.entries)-1].v
}
