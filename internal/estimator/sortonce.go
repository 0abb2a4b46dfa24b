package estimator

import (
	"math"
	"slices"
	"sync"

	"repro/internal/stats"
)

// Sort-once order statistics. Query.EvalWeighted answers MIN, MAX and
// PERCENTILE over a resample from scratch: a compare per row for an extreme,
// or an n-pair allocation and sort. Under K resamples of one value vector —
// the query-level bootstrap, and every subsample of the diagnostic's ladder
// when ξ is the bootstrap — only the weights change, so the vector is sorted
// once and each resample walks that order against its weights. A UDF cannot
// be handed the order through its func(values, weights) signature, so the
// vector's order is offered instead, and a UDF that wants it asks OrderOf.

// orderPool recycles order vectors. One longer than maxPooledOrder rows is a
// whole table answered exactly, one call: it is left to the collector, as
// stats.WeightedQuantile leaves its pairs, rather than kept live for two more
// collections.
var orderPool = sync.Pool{New: func() any { return new([]int32) }}

const maxPooledOrder = 1 << 16

// sortOrder returns the ascending order of a NaN-free vector in a vector from
// orderPool: order[p] is the row holding the p-th smallest value, and equal
// values keep their row order.
func sortOrder(values []float64) *[]int32 {
	n := len(values)
	p := orderPool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	order := (*p)[:n]
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		switch va, vb := values[a], values[b]; {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return int(a - b)
	})
	*p = order
	return p
}

func putOrder(p *[]int32) {
	if cap(*p) <= maxPooledOrder {
		orderPool.Put(p)
	}
}

// orderable reports whether values can be given an order: a NaN's place in a
// sort is undefined.
func orderable(values []float64) bool {
	return len(values) > 0 && len(values) <= math.MaxInt32 && !slices.ContainsFunc(values, math.IsNaN)
}

// An offer makes one vector's order available to the θ evaluated over it.
// It is keyed by the vector's first element and length, so a sub-slice is a
// different vector; offering a vector already on offer shares the first
// offer's order, and the order is withdrawn when the last offer is released.
type offer struct {
	key   offerKey
	refs  int // guarded by offers.mu
	once  sync.Once
	order *[]int32 // nil until built, and for a vector holding a NaN
}

type offerKey struct {
	first *float64
	n     int
}

var offers = struct {
	mu sync.Mutex
	m  map[offerKey]*offer
}{m: map[offerKey]*offer{}}

// offerOrder offers values' order to OrderOf until the offer's release runs.
// Nothing is sorted here: the first OrderOf call builds the order, at most
// once per offer, and callers running concurrently share it read-only. The
// caller must not modify values, and must release the offer once no θ over
// them is running. An empty vector gets a nil offer, whose release does
// nothing.
func offerOrder(values []float64) *offer {
	if len(values) == 0 {
		return nil
	}
	key := offerKey{&values[0], len(values)}
	offers.mu.Lock()
	o := offers.m[key]
	if o == nil {
		o = &offer{key: key}
		offers.m[key] = o
	}
	o.refs++
	offers.mu.Unlock()
	return o
}

func (o *offer) release() {
	if o == nil {
		return
	}
	offers.mu.Lock()
	o.refs--
	last := o.refs == 0
	if last {
		delete(offers.m, o.key)
	}
	offers.mu.Unlock()
	if last && o.order != nil {
		putOrder(o.order)
	}
}

// OrderOf returns the ascending order of values — order[p] is the row
// holding the p-th smallest value, equal values in row order — while the
// engine offers it: to the UDF θ of Query.ResampleTheta's resamples, and of
// Query.Eval. It returns nil when values are not on offer (a sub-slice of an
// offered vector is not), and for a vector holding a NaN. The order is the
// engine's: read it, do not modify or retain it past θ's return.
//
// A UDF that reads the order must return, when it gets nil, the same bits as
// when it does not: the harness and any caller outside the engine call it
// with nothing offered.
func OrderOf(values []float64) []int32 {
	if len(values) == 0 {
		return nil
	}
	offers.mu.Lock()
	o := offers.m[offerKey{&values[0], len(values)}]
	offers.mu.Unlock()
	if o == nil {
		return nil
	}
	o.once.Do(func() {
		if orderable(values) {
			o.order = sortOrder(values)
		}
	})
	if o.order == nil {
		return nil
	}
	return *o.order
}

// sortOnce is θ for MIN, MAX or PERCENTILE over one ordered vector.
type sortOnce struct {
	kind  AggKind
	pct   float64
	order *[]int32
}

// ResampleTheta returns the θ to evaluate on Poisson-weighted resamples of
// values — the function kernel.Generic takes — and a release the caller runs
// once the last resample is done. For MIN, MAX and PERCENTILE over a
// NaN-free vector, θ reads an order of values built here once: it must be
// given these values with a weight vector of their length, and may be called
// concurrently. A UDF gets q.EvalWeighted with values on offer (OrderOf)
// until release. Every other query, and a vector holding a NaN (whose sort
// order is undefined), gets q.EvalWeighted itself.
//
// θ returns the bits q.EvalWeighted returns for the same weights. The
// extremes are found by the same comparisons; PERCENTILE is
// stats.WeightedQuantileOrdered, whose comment has the argument.
func (q Query) ResampleTheta(values []float64) (theta func(values, weights []float64) float64, release func()) {
	if q.Kind == UDF {
		return q.EvalWeighted, offerOrder(values).release
	}
	orderStat := q.Kind == Min || q.Kind == Max || q.Kind == Percentile
	if !orderStat || !orderable(values) {
		return q.EvalWeighted, func() {}
	}
	s := &sortOnce{kind: q.Kind, pct: q.Pct, order: sortOrder(values)}
	return s.eval, func() { putOrder(s.order) }
}

// eval is θ on the resample of values whose multiplicities are weights.
func (s *sortOnce) eval(values, weights []float64) float64 {
	order := *s.order
	switch s.kind {
	case Min:
		// Moments keeps the first of equal minima in row order, which is
		// the first of them in the order.
		for _, row := range order {
			if weights[row] > 0 {
				return values[row]
			}
		}
		return math.NaN()
	case Max:
		for p := len(order) - 1; p >= 0; p-- {
			if weights[order[p]] <= 0 {
				continue
			}
			// Moments keeps the first of equal maxima in row order too: the
			// lowest present position of the run of equals.
			top := values[order[p]]
			for t := p - 1; t >= 0 && values[order[t]] == top; t-- {
				if weights[order[t]] > 0 {
					p = t
				}
			}
			return values[order[p]]
		}
		return math.NaN()
	}
	return stats.WeightedQuantileOrdered(values, weights, order, s.pct)
}
