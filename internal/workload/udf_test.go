package workload

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/estimator"
	"repro/internal/kernel"
	"repro/internal/rng"
)

// orderedUDFs are the library UDFs that walk an offered order.
var orderedUDFs = []string{"trimmed_mean_5", "top_decile_mean", "median_abs_dev", "frac_above_median_x2"}

// orderedColumns are the value vectors the differential runs over, by size.
func orderedColumns(n int) map[string][]float64 {
	src := rng.New(uint64(9090 + n))
	cols := map[string][]float64{}
	for _, name := range []string{"random", "ties", "constant", "infs", "zeros"} {
		cols[name] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		cols["random"][i] = src.LogNormal(0, 1.5)
		cols["ties"][i] = float64(src.Intn(4)) // four atoms, each ~n/4 rows
		cols["constant"][i] = 7.25
		cols["infs"][i] = src.NormFloat64()
		switch src.Intn(8) {
		case 0:
			cols["infs"][i] = math.Inf(1)
		case 1:
			cols["infs"][i] = math.Inf(-1)
		}
		// −0 and +0, with a few values either side so that medians,
		// trimmed ranges and deviations all land on zeros of both signs.
		cols["zeros"][i] = [...]float64{math.Copysign(0, -1), 0, 0, math.Copysign(0, -1), -1.5, 2}[src.Intn(6)]
	}
	return cols
}

func bitsDiffer(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }

// TestOrderedUDFsMatchBlackBox: each order-statistic UDF returns the same
// bits with the engine's order offered — θ(S) through Query.Eval, resamples
// through Query.ResampleTheta at every worker count — as called as a black
// box with nothing offered (the expand-and-sort path, and what the
// harness's oracle runs). The offered runs check the order really reached
// the UDF; a vector holding a NaN gets none, and still agrees.
func TestOrderedUDFsMatchBlackBox(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 6, 250, 1024, 1025, 50000} {
		k := 24
		if n > 2000 {
			if testing.Short() {
				continue
			}
			k = 4 // the black box sorts n values per resample
		}
		cols := orderedColumns(n)
		withNaN := append([]float64(nil), cols["random"]...)
		withNaN[n/2] = math.NaN()
		cols["nan"] = withNaN
		for colName, values := range cols {
			for _, name := range orderedUDFs {
				fn := UDFByName(name).Fn
				var missing atomic.Int64
				q := estimator.Query{Kind: estimator.UDF, FnName: name, Fn: func(v, w []float64) float64 {
					if estimator.OrderOf(v) == nil {
						missing.Add(1)
					}
					return fn(v, w)
				}}
				label := fmt.Sprintf("%s over %s n=%d", name, colName, n)
				if got, want := q.Eval(values), fn(values, nil); bitsDiffer(got, want) {
					t.Errorf("%s, unweighted: %v (%#x), want %v (%#x)", label,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
				seed, stream := uint64(n), uint64(len(name))
				want, _ := kernel.Generic(ctx, values, k, seed, stream, 1, fn)
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
				calls, wantMissing := 1+3*int64(k), int64(0)
				if colName == "nan" {
					wantMissing = calls
				}
				if got := missing.Load(); got != wantMissing {
					t.Errorf("%s: no order in %d of %d calls, want %d", label, got, calls, wantMissing)
				}
			}
		}
	}
}

// TestScratchPoolBound: an exact answer over a whole table expands a vector
// far past maxPooledScratch rows; it is left to the collector, so no later
// resample's Get hands it out.
func TestScratchPoolBound(t *testing.T) {
	values := GenerateColumn(rng.New(5), LogNormalMild, 250000)
	for _, name := range []string{"trimmed_mean_5", "top_decile_mean", "median_abs_dev", "frac_above_median_x2"} {
		UDFByName(name).Fn(values, nil)
		var got []*[]float64
		for i := 0; i < 8; i++ {
			p := scratchPool.Get().(*[]float64)
			if cap(*p) > maxPooledScratch {
				t.Errorf("after %s over %d rows the pool handed out a vector of capacity %d", name, len(values), cap(*p))
			}
			got = append(got, p)
		}
		for _, p := range got {
			putScratch(p)
		}
	}
}
