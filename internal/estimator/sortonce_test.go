package estimator

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rng"
)

// sortOnceColumns are the value vectors the differential runs over, by size.
func sortOnceColumns(n int) map[string][]float64 {
	src := rng.New(uint64(4242 + n))
	random := make([]float64, n)
	ties := make([]float64, n)
	constant := make([]float64, n)
	infs := make([]float64, n)
	for i := 0; i < n; i++ {
		random[i] = src.LogNormal(0, 1.5)
		ties[i] = float64(src.Intn(4)) // four atoms, each ~n/4 rows
		constant[i] = 7.25
		infs[i] = src.NormFloat64()
		switch src.Intn(8) {
		case 0:
			infs[i] = math.Inf(1)
		case 1:
			infs[i] = math.Inf(-1)
		}
	}
	return map[string][]float64{"random": random, "ties": ties, "constant": constant, "infs": infs}
}

var sortOnceQueries = []Query{
	{Kind: Min}, {Kind: Max},
	{Kind: Percentile, Pct: 0}, {Kind: Percentile, Pct: 0.5},
	{Kind: Percentile, Pct: 0.95}, {Kind: Percentile, Pct: 1},
}

func bitsDiffer(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }

// TestResampleThetaMatchesEvalWeighted is the sort-once differential: on the
// weight vectors kernel.FillWeights draws — the ones every bootstrap in the
// engine evaluates θ over — the walk returns EvalWeighted's bits, through
// kernel.Generic at every worker count.
func TestResampleThetaMatchesEvalWeighted(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 6, 250, 1024, 1025, 50000} {
		k := 40
		if n > 2000 {
			if testing.Short() {
				continue
			}
			k = 5 // EvalWeighted sorts n pairs per resample
		}
		for name, values := range sortOnceColumns(n) {
			for _, q := range sortOnceQueries {
				label := fmt.Sprintf("%s n=%d %s", name, n, q.Name())
				seed, stream := uint64(n), uint64(q.Kind)<<8|uint64(q.Pct*100)
				want, _ := kernel.Generic(ctx, values, k, seed, stream, 1, q.EvalWeighted)
				for _, workers := range []int{1, 2, 8} {
					theta, release := q.ResampleTheta(values)
					got, _ := kernel.Generic(ctx, values, k, seed, stream, workers, theta)
					release()
					for r := range want {
						if bitsDiffer(got[r], want[r]) {
							t.Fatalf("%s workers=%d resample %d: %v (%#x), want %v (%#x)", label, workers, r,
								got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
						}
					}
				}
			}
		}
	}
}

// TestResampleThetaEdgeWeights covers the weight vectors a Poisson draw
// rarely produces: nothing present, only the extremes present, and one row.
func TestResampleThetaEdgeWeights(t *testing.T) {
	values := sortOnceColumns(250)["random"]
	lo, hi := 0, 0
	for i, v := range values {
		if v < values[lo] {
			lo = i
		}
		if v > values[hi] {
			hi = i
		}
	}
	weights := map[string][]float64{
		"all zero":      make([]float64, len(values)),
		"extremes only": make([]float64, len(values)),
		"minimum only":  make([]float64, len(values)),
	}
	weights["extremes only"][lo], weights["extremes only"][hi] = 2, 1
	weights["minimum only"][lo] = 3
	for _, q := range sortOnceQueries {
		theta, release := q.ResampleTheta(values)
		for name, w := range weights {
			if got, want := theta(values, w), q.EvalWeighted(values, w); bitsDiffer(got, want) {
				t.Errorf("%s, %s: %v, want %v", q.Name(), name, got, want)
			}
		}
		if got := theta(values, weights["all zero"]); !math.IsNaN(got) {
			t.Errorf("%s over an empty resample = %v, want NaN", q.Name(), got)
		}
		release()
	}
	// Equal extremes whose bits differ: Moments keeps the first present one
	// in row order, for MIN and for MAX.
	zeros := []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)}
	for _, q := range []Query{{Kind: Min}, {Kind: Max}} {
		theta, release := q.ResampleTheta(zeros)
		for _, w := range [][]float64{{1, 1, 1, 1}, {0, 1, 1, 0}, {0, 0, 1, 2}, {0, 0, 0, 1}} {
			if got, want := theta(zeros, w), q.EvalWeighted(zeros, w); bitsDiffer(got, want) {
				t.Errorf("%s of ±0 under %v: %v, want %v", q.Name(), w, got, want)
			}
		}
		release()
	}
}

// TestOrderOfScopes: the order is there for exactly the offered vector while
// it is offered — not outside an offer, not for a sub-slice, not after
// release, not for a vector holding a NaN — and concurrent offers of
// distinct vectors, and nested offers of one, each see their own order.
func TestOrderOfScopes(t *testing.T) {
	values := sortOnceColumns(250)["random"]
	want := make([]int32, len(values))
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(values[a], values[b]) })

	if OrderOf(values) != nil {
		t.Fatal("order outside an offer")
	}
	release := offerOrder(values).release
	if got := OrderOf(values); !slices.Equal(got, want) {
		t.Fatalf("offered order %v, want %v", got, want)
	}
	if OrderOf(values[:len(values)-1]) != nil || OrderOf(values[1:]) != nil {
		t.Error("order for a sub-slice of the offered vector")
	}
	offerOrder(values).release() // nested: shares the order, outlives nothing
	if got := OrderOf(values); !slices.Equal(got, want) {
		t.Error("releasing a nested offer withdrew the outer one")
	}
	release()
	if OrderOf(values) != nil {
		t.Error("order after release")
	}

	withNaN := slices.Clone(values)
	withNaN[17] = math.NaN()
	release = offerOrder(withNaN).release
	if OrderOf(withNaN) != nil {
		t.Error("order for a vector holding a NaN")
	}
	release()

	// A UDF sees the order under Eval, and in every resample of
	// ResampleTheta's θ with four workers sharing it.
	var seen atomic.Int64
	probe := Query{Kind: UDF, Fn: func(v, w []float64) float64 {
		if slices.Equal(OrderOf(v), want) {
			seen.Add(1)
		}
		return 0
	}}
	probe.Eval(values)
	theta, release := probe.ResampleTheta(values)
	kernel.Generic(context.Background(), values, 16, 1, 2, 4, theta)
	release()
	if got := seen.Load(); got != 17 {
		t.Errorf("the UDF saw the order in %d of 17 calls", got)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := sortOnceColumns(100 + g)["ties"]
			for round := 0; round < 20; round++ {
				o := offerOrder(v)
				order := OrderOf(v)
				if len(order) != len(v) || !slices.IsSortedFunc(order, func(a, b int32) int {
					if c := cmp.Compare(v[a], v[b]); c != 0 {
						return c
					}
					return cmp.Compare(a, b)
				}) {
					t.Errorf("goroutine %d: not the ascending order of its own vector", g)
				}
				o.release()
			}
		}()
	}
	wg.Wait()
	offers.mu.Lock()
	defer offers.mu.Unlock()
	if len(offers.m) != 0 {
		t.Errorf("%d offers left behind", len(offers.m))
	}
}

// TestResampleThetaKeepsGenericPath: everything the walk does not cover is
// handed q.EvalWeighted itself — other aggregates, UDFs, an empty vector, and
// a vector holding a NaN, whose place in a sort is undefined.
func TestResampleThetaKeepsGenericPath(t *testing.T) {
	values := sortOnceColumns(250)["random"]
	withNaN := append([]float64(nil), values...)
	withNaN[17] = math.NaN()
	w := make([]float64, len(values))
	kernel.FillWeights(w, 3, 5, 0)
	udf := Query{Kind: UDF, Fn: func(values, weights []float64) float64 { return weights[0] + values[1] }}
	for _, c := range []struct {
		name   string
		q      Query
		values []float64
	}{
		{"AVG", Query{Kind: Avg}, values},
		{"VARIANCE", Query{Kind: Variance}, values},
		{"UDF", udf, values},
		{"MIN over NaN", Query{Kind: Min}, withNaN},
		{"MAX over NaN", Query{Kind: Max}, withNaN},
		{"PERCENTILE over NaN", Query{Kind: Percentile, Pct: 0.5}, withNaN},
		{"PERCENTILE out of range", Query{Kind: Percentile, Pct: 1.5}, values},
	} {
		theta, release := c.q.ResampleTheta(c.values)
		if got, want := theta(c.values, w), c.q.EvalWeighted(c.values, w); bitsDiffer(got, want) {
			t.Errorf("%s: %v, want %v", c.name, got, want)
		}
		release()
	}
	for _, q := range sortOnceQueries {
		theta, release := q.ResampleTheta(nil)
		if got := theta(nil, nil); !math.IsNaN(got) {
			t.Errorf("%s over no rows = %v, want NaN", q.Name(), got)
		}
		release()
	}
}
