package workload

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestGenerateColumnShapes(t *testing.T) {
	src := rng.New(1)
	for d := Gaussian; d <= Bimodal; d++ {
		xs := GenerateColumn(src, d, 5000)
		if len(xs) != 5000 {
			t.Fatalf("%v: wrong length", d)
		}
		m := stats.Mean(xs)
		if math.IsNaN(m) || math.IsInf(m, 0) {
			t.Errorf("%v: degenerate mean %v", d, m)
		}
	}
}

func TestGenerateColumnDistinctShapes(t *testing.T) {
	src := rng.New(2)
	// Pareto must be much more skewed than Gaussian.
	g := GenerateColumn(src, Gaussian, 20000)
	p := GenerateColumn(src, ParetoTail, 20000)
	gRatio := slices.Max(g) / stats.Quantile(g, 0.5)
	pRatio := slices.Max(p) / stats.Quantile(p, 0.5)
	if pRatio < 10*gRatio {
		t.Errorf("Pareto max/median %v not far heavier than Gaussian %v", pRatio, gRatio)
	}
	// Spiky: overwhelming majority near 10, rare huge outliers possible.
	s := GenerateColumn(src, Spiky, 100000)
	med := stats.Quantile(s, 0.5)
	if med < 5 || med > 15 {
		t.Errorf("spiky median = %v, want ~10", med)
	}
}

func TestDataDistPredicatesAndNames(t *testing.T) {
	if Gaussian.String() != "gaussian" || Spiky.String() != "spiky" {
		t.Error("distribution names wrong")
	}
	if Facebook.String() != "facebook" || Conviva.String() != "conviva" {
		t.Error("trace names wrong")
	}
}

func TestGenerateColumnPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown distribution did not panic")
		}
	}()
	GenerateColumn(rng.New(1), DataDist(99), 10)
}

func TestUDFLibraryEvaluates(t *testing.T) {
	src := rng.New(3)
	xs := GenerateColumn(src, LogNormalMild, 2000)
	w := make([]float64, len(xs))
	for i := range w {
		w[i] = float64(src.Poisson1())
	}
	for _, u := range UDFLibrary {
		plain := u.Fn(xs, nil)
		if math.IsNaN(plain) || math.IsInf(plain, 0) {
			t.Errorf("%s: plain eval degenerate: %v", u.Name, plain)
		}
		weighted := u.Fn(xs, w)
		if math.IsNaN(weighted) || math.IsInf(weighted, 0) {
			t.Errorf("%s: weighted eval degenerate: %v", u.Name, weighted)
		}
		// Weighted result must be in the same ballpark as plain (the
		// resample is a perturbation, not a different statistic).
		if plain != 0 && math.Abs(weighted-plain)/math.Abs(plain) > 1.5 {
			t.Errorf("%s: weighted %v vs plain %v implausibly far", u.Name, weighted, plain)
		}
	}
}

func TestUDFWeightZeroMeansAbsent(t *testing.T) {
	xs := []float64{1, 2, 3, 1000}
	w := []float64{1, 1, 1, 0}
	spec := UDFByName("range_width")
	if spec == nil {
		t.Fatal("range_width missing from library")
	}
	if got := spec.Fn(xs, w); got != 2 {
		t.Errorf("range with outlier zeroed = %v, want 2", got)
	}
	if got := spec.Fn(xs, nil); got != 999 {
		t.Errorf("plain range = %v, want 999", got)
	}
}

func TestUDFByNameMissing(t *testing.T) {
	if UDFByName("no_such_udf") != nil {
		t.Error("unknown UDF should return nil")
	}
}

func TestUDFTrimmedMeanRobust(t *testing.T) {
	spec := UDFByName("trimmed_mean_5")
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 10
	}
	xs[0] = 1e9 // one outlier, inside the trimmed 5%
	if got := spec.Fn(xs, nil); got != 10 {
		t.Errorf("trimmed mean = %v, want 10", got)
	}
}

func TestUDFEmptyInput(t *testing.T) {
	for _, name := range []string{"trimmed_mean_5", "median_abs_dev", "top_decile_mean"} {
		spec := UDFByName(name)
		if got := spec.Fn(nil, nil); !math.IsNaN(got) {
			t.Errorf("%s on empty input = %v, want NaN", name, got)
		}
	}
}

func TestGenerateReproducible(t *testing.T) {
	cfg := TraceConfig{Kind: Facebook, NumQueries: 20, PopulationSize: 1000,
		Seed: 7, AdversarialFraction: -1}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("trace lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Query.Kind != b[i].Query.Kind || a[i].Dist != b[i].Dist {
			t.Fatalf("query %d differs across identical generations", i)
		}
		for j := range a[i].Population {
			if a[i].Population[j] != b[i].Population[j] {
				t.Fatalf("query %d population differs at row %d", i, j)
			}
		}
	}
}

func TestGenerateMarginalMix(t *testing.T) {
	trace := Generate(TraceConfig{Kind: Facebook, NumQueries: 3000,
		PopulationSize: 100, Seed: 11, AdversarialFraction: -1})
	counts := map[estimator.AggKind]int{}
	for _, q := range trace {
		counts[q.Query.Kind]++
	}
	n := float64(len(trace))
	check := func(kind estimator.AggKind, want float64) {
		got := float64(counts[kind]) / n
		if math.Abs(got-want) > 0.03 {
			t.Errorf("Facebook %v share = %v, want ~%v", kind, got, want)
		}
	}
	check(estimator.Min, 0.3335)
	check(estimator.Count, 0.2467)
	check(estimator.Avg, 0.1220)
	check(estimator.Sum, 0.1011)
	check(estimator.Max, 0.0287)
	check(estimator.UDF, 0.1101)
}

func TestGenerateConvivaUDFHeavy(t *testing.T) {
	trace := Generate(TraceConfig{Kind: Conviva, NumQueries: 2000,
		PopulationSize: 100, Seed: 12, AdversarialFraction: -1})
	udf := 0
	for _, q := range trace {
		if q.Query.Kind == estimator.UDF {
			udf++
		}
	}
	frac := float64(udf) / float64(len(trace))
	if math.Abs(frac-0.4207) > 0.03 {
		t.Errorf("Conviva UDF share = %v, want ~0.42", frac)
	}
}

func TestCountQueriesAreIndicators(t *testing.T) {
	trace := Generate(TraceConfig{Kind: Facebook, NumQueries: 400,
		PopulationSize: 500, Seed: 13, AdversarialFraction: -1})
	seen := false
	for _, q := range trace {
		if q.Query.Kind != estimator.Count {
			continue
		}
		seen = true
		for _, v := range q.Population {
			if v != 0 && v != 1 {
				t.Fatalf("COUNT population value %v not an indicator", v)
			}
		}
		if q.Query.PopN != 500 {
			t.Errorf("COUNT PopN = %d", q.Query.PopN)
		}
	}
	if !seen {
		t.Error("no COUNT queries in a 400-query Facebook trace")
	}
}

func TestUDFQueriesHaveBodies(t *testing.T) {
	trace := Generate(TraceConfig{Kind: Conviva, NumQueries: 200,
		PopulationSize: 100, Seed: 14, AdversarialFraction: -1})
	for _, q := range trace {
		if q.Query.Kind == estimator.UDF {
			if q.Query.Fn == nil || q.UDFName == "" {
				t.Fatal("UDF query without body or name")
			}
			if UDFByName(q.UDFName) == nil {
				t.Fatalf("UDF %q not in library", q.UDFName)
			}
		}
	}
}

func TestQuerySpecMetadata(t *testing.T) {
	trace := Generate(TraceConfig{Kind: Facebook, NumQueries: 100,
		PopulationSize: 100, Seed: 17, AdversarialFraction: -1})
	fanout := 0
	for _, q := range trace {
		if q.BytesPerRow < 64 || q.BytesPerRow >= 512 {
			t.Fatalf("BytesPerRow = %d outside [64, 512)", q.BytesPerRow)
		}
		if q.GroupFanout < 1 {
			t.Fatal("GroupFanout < 1")
		}
		if q.GroupFanout > 1 {
			fanout++
		}
		if q.Name() == "" {
			t.Fatal("empty query name")
		}
	}
	if fanout == 0 {
		t.Error("no GROUP BY queries generated in 100 draws")
	}
}

func TestGenerateEmptyAndDefaults(t *testing.T) {
	if Generate(TraceConfig{Kind: Facebook, NumQueries: 0}) != nil {
		t.Error("zero queries should return nil")
	}
	trace := Generate(TraceConfig{Kind: Facebook, NumQueries: 1, Seed: 1,
		AdversarialFraction: -1})
	if len(trace[0].Population) != 200000 {
		t.Errorf("default population size = %d, want 200000", len(trace[0].Population))
	}
}

func TestQuerySpecSQL(t *testing.T) {
	mk := func(kind estimator.AggKind, pct float64, udf string) QuerySpec {
		return QuerySpec{Query: estimator.Query{Kind: kind, Pct: pct}, UDFName: udf}
	}
	if got := mk(estimator.Avg, 0, "").SQL("t", "v"); got != "SELECT AVG(v) FROM t" {
		t.Errorf("AVG sql = %q", got)
	}
	if got := mk(estimator.Count, 0, "").SQL("t", "v"); got != "SELECT COUNT(*) FROM t WHERE v = 1" {
		t.Errorf("COUNT sql = %q", got)
	}
	if got := mk(estimator.Percentile, 0.95, "").SQL("t", "v"); got != "SELECT PERCENTILE(v, 0.95) FROM t" {
		t.Errorf("PERCENTILE sql = %q", got)
	}
	if got := mk(estimator.UDF, 0, "trimmed_mean_5").SQL("t", "v"); got != "SELECT trimmed_mean_5(v) FROM t" {
		t.Errorf("UDF sql = %q", got)
	}
	if got := mk(estimator.Sum, 0, "").SQL("t", "v"); got != "SELECT SUM(v) FROM t" {
		t.Errorf("SUM sql = %q", got)
	}
}

// plainExpandSorted and the three θs below are the order-statistic UDFs as
// they were written before they shared pooled scratch: fresh vectors
// throughout. They are the reference the pooled versions must equal.
func plainExpandSorted(values, weights []float64) []float64 {
	var out []float64
	for i, v := range values {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		for c := 0.0; c < w; c++ {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

var plainUDFs = map[string]func(values, weights []float64) float64{
	"trimmed_mean_5": func(values, weights []float64) float64 {
		xs := plainExpandSorted(values, weights)
		if len(xs) == 0 {
			return math.NaN()
		}
		cut := int(0.05 * float64(len(xs)))
		return stats.Mean(xs[cut : len(xs)-cut])
	},
	"median_abs_dev": func(values, weights []float64) float64 {
		xs := plainExpandSorted(values, weights)
		if len(xs) == 0 {
			return math.NaN()
		}
		med := stats.QuantileSorted(xs, 0.5)
		devs := make([]float64, len(xs))
		for i, v := range xs {
			devs[i] = math.Abs(v - med)
		}
		return stats.Quantile(devs, 0.5)
	},
	"top_decile_mean": func(values, weights []float64) float64 {
		xs := plainExpandSorted(values, weights)
		if len(xs) == 0 {
			return math.NaN()
		}
		k := int(0.10 * float64(len(xs)))
		if k < 1 {
			k = 1
		}
		return stats.Mean(xs[len(xs)-k:])
	},
}

// TestUDFPooledScratchMatchesPlain: the pooled order-statistic UDFs return
// the plain versions' bits whatever a previous call left in the pool (sizes
// are interleaved, goroutines share the pool), and neither path — weighted
// or the nil-weights one the benchmark's oracle calls — changes its inputs.
func TestUDFPooledScratchMatchesPlain(t *testing.T) {
	src := rng.New(77)
	type input struct{ values, weights []float64 }
	var inputs []input
	for _, n := range []int{0, 1, 7, 250, 3000, 64} {
		values := GenerateColumn(src, LogNormalMild, n)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(src.Poisson(1))
		}
		inputs = append(inputs, input{values, nil}, input{values, weights},
			input{values, make([]float64, n)}) // every row absent
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, plain := range plainUDFs {
				fn := UDFByName(name).Fn
				for round := 0; round < 3; round++ {
					for _, in := range inputs {
						values := append([]float64(nil), in.values...)
						weights := append([]float64(nil), in.weights...)
						got, want := fn(in.values, in.weights), plain(values, in.weights)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s over %d rows (weights nil: %v): %v, want %v",
								name, len(values), in.weights == nil, got, want)
						}
						if !slices.Equal(in.values, values) || !slices.Equal(in.weights, weights) {
							t.Errorf("%s changed its input", name)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
