package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMomentsBasic(t *testing.T) {
	var m Moments
	for _, x := range []float64{1, 2, 3, 4, 5} {
		m.Add(x)
	}
	if got := m.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := m.Variance(); got != 2 {
		t.Errorf("Variance = %v, want 2", got)
	}
	if got := m.SampleVariance(); got != 2.5 {
		t.Errorf("SampleVariance = %v, want 2.5", got)
	}
	if got := m.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := m.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := m.k*m.n + m.s1; got != 15 {
		t.Errorf("sum = %v, want 15", got)
	}
	if m.n != 5 {
		t.Errorf("weight = %v, want 5", m.n)
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if !math.IsNaN(m.Mean()) || !math.IsNaN(m.Variance()) ||
		!math.IsNaN(m.Min()) || !math.IsNaN(m.Max()) {
		t.Error("empty Moments should report NaN statistics")
	}
	if m.s1 != 0 || m.s2 != 0 || m.n != 0 {
		t.Error("empty Moments should hold zero sums and weight")
	}
}

func TestMomentsWeighted(t *testing.T) {
	// Weight-2 observation must equal two weight-1 observations.
	var a, b Moments
	a.AddWeighted(3, 2)
	a.AddWeighted(7, 1)
	b.Add(3)
	b.Add(3)
	b.Add(7)
	if !almostEqual(a.Mean(), b.Mean(), 1e-12) {
		t.Errorf("weighted mean %v != replicated mean %v", a.Mean(), b.Mean())
	}
	if !almostEqual(a.Variance(), b.Variance(), 1e-12) {
		t.Errorf("weighted var %v != replicated var %v", a.Variance(), b.Variance())
	}
}

func TestMomentsZeroWeightIgnored(t *testing.T) {
	var m Moments
	m.AddWeighted(100, 0) // row absent from resample: must not touch min/max
	m.Add(5)
	if m.Min() != 5 || m.Max() != 5 {
		t.Errorf("zero-weight observation affected extremes: min=%v max=%v",
			m.Min(), m.Max())
	}
}

func TestMomentsMerge(t *testing.T) {
	src := rng.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = src.NormFloat64()*3 + 10
	}
	var whole Moments
	for _, x := range xs {
		whole.Add(x)
	}
	var left, right Moments
	for _, x := range xs[:400] {
		left.Add(x)
	}
	for _, x := range xs[400:] {
		right.Add(x)
	}
	left.Merge(&right)
	if !almostEqual(left.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("merged mean %v != whole mean %v", left.Mean(), whole.Mean())
	}
	if !almostEqual(left.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged var %v != whole var %v", left.Variance(), whole.Variance())
	}
	if left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Error("merged extremes differ from whole-pass extremes")
	}
}

func TestMomentsMergeWithEmpty(t *testing.T) {
	var a, b Moments
	a.Add(1)
	a.Add(2)
	before := a.Mean()
	a.Merge(&b) // merging empty is a no-op
	if a.Mean() != before {
		t.Error("merging empty accumulator changed state")
	}
	b.Merge(&a) // merging into empty copies
	if b.Mean() != before || b.n != 2 {
		t.Error("merging into empty accumulator did not copy state")
	}
}

func TestDescriptiveHelpers(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Min(xs) != 1 || Max(xs) != 4 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !almostEqual(Variance(xs), 1.25, 1e-12) {
		t.Errorf("Variance = %v, want 1.25", Variance(xs))
	}
	if !almostEqual(SampleVariance(xs), 5.0/3, 1e-12) {
		t.Errorf("SampleVariance = %v", SampleVariance(xs))
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty-slice helpers should return NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.75, 7.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty should be NaN")
	}
	if !math.IsNaN(Quantile(xs, 1.5)) {
		t.Error("Quantile with q>1 should be NaN")
	}
	if got := Quantile([]float64{42}, 0.99); got != 42 {
		t.Errorf("single-element quantile = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestWeightedQuantile(t *testing.T) {
	xs := []float64{1, 2, 3}
	ws := []float64{1, 1, 1}
	if got := WeightedQuantile(xs, ws, 0.5); got != 2 {
		t.Errorf("uniform-weight median = %v, want 2", got)
	}
	// Heavy weight on 3 drags the median to 3.
	if got := WeightedQuantile(xs, []float64{1, 1, 10}, 0.5); got != 3 {
		t.Errorf("skew-weight median = %v, want 3", got)
	}
	// Zero-weight rows are invisible.
	if got := WeightedQuantile(xs, []float64{0, 1, 0}, 0.5); got != 2 {
		t.Errorf("zero-weight median = %v, want 2", got)
	}
	if !math.IsNaN(WeightedQuantile(xs, []float64{0, 0, 0}, 0.5)) {
		t.Error("all-zero weights should yield NaN")
	}
	if !math.IsNaN(WeightedQuantile(xs, []float64{1, 1}, 0.5)) {
		t.Error("length mismatch should yield NaN")
	}
}

// weightedQuantileAllocating is WeightedQuantile as it was before the pooled
// scratch: a fresh pair vector per call, ordered by sort.Slice.
func weightedQuantileAllocating(xs, ws []float64, q float64) float64 {
	if len(xs) != len(ws) || len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	type wx struct{ x, w float64 }
	items := make([]wx, 0, len(xs))
	total := 0.0
	for i, x := range xs {
		if ws[i] > 0 {
			items = append(items, wx{x, ws[i]})
			total += ws[i]
		}
	}
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(items, func(i, j int) bool { return items[i].x < items[j].x })
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

// TestWeightedQuantileMatchesAllocatingBody: the pooled, slices-sorted
// WeightedQuantile returns the old body's bits on resample-shaped input —
// integer multiplicities with zeros, values with ties — at the quantiles
// the engine asks for and at both ends, whatever length the pooled scratch
// last held.
func TestWeightedQuantileMatchesAllocatingBody(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + src.Intn(300)
		if trial == 1000 {
			n = maxPooledWeighted + 5 // a table-sized call, whose scratch is not kept
		}
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			switch trial % 3 {
			case 0:
				xs[i] = src.NormFloat64()
			case 1:
				xs[i] = float64(src.Intn(7)) // heavy ties
			default:
				xs[i] = math.Floor(src.LogNormal(2, 1))
			}
			if trial%10 != 9 { // every tenth trial: all rows absent
				ws[i] = float64(src.Poisson(1))
			}
		}
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			got, want := WeightedQuantile(xs, ws, q), weightedQuantileAllocating(xs, ws, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d n=%d q=%v: %v, want %v", trial, n, q, got, want)
			}
		}
	}
}

func BenchmarkWeightedQuantile(b *testing.B) {
	src := rng.New(78)
	xs := make([]float64, 250)
	ws := make([]float64, len(xs))
	for i := range xs {
		xs[i] = src.NormFloat64()
		ws[i] = float64(src.Poisson(1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WeightedQuantile(xs, ws, 0.5)
	}
}

func TestSymmetricHalfWidth(t *testing.T) {
	xs := []float64{-3, -1, 0, 1, 3}
	// Around 0 with alpha=0.6: need 3 of 5 values; |devs| sorted = 0,1,1,3,3.
	if got := SymmetricHalfWidth(xs, 0, 0.6); got != 1 {
		t.Errorf("half width = %v, want 1", got)
	}
	// alpha=1 needs all 5: half width 3.
	if got := SymmetricHalfWidth(xs, 0, 1); got != 3 {
		t.Errorf("full-coverage half width = %v, want 3", got)
	}
	if !math.IsNaN(SymmetricHalfWidth(nil, 0, 0.5)) {
		t.Error("empty input should yield NaN")
	}
	if !math.IsNaN(SymmetricHalfWidth(xs, 0, 0)) {
		t.Error("alpha=0 should yield NaN")
	}
}

// Property: the symmetric interval of half-width a actually covers at least
// ceil(alpha*n) points, and shrinking it below the reported width loses
// coverage.
func TestQuickSymmetricHalfWidthCoverage(t *testing.T) {
	src := rng.New(33)
	f := func(seed uint64) bool {
		s := rng.New(seed)
		n := 1 + s.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.NormFloat64() * 10
		}
		center := s.NormFloat64()
		alpha := 0.05 + 0.9*s.Float64()
		a := SymmetricHalfWidth(xs, center, alpha)
		covered := 0
		for _, x := range xs {
			if math.Abs(x-center) <= a {
				covered++
			}
		}
		need := int(math.Ceil(alpha * float64(n)))
		if need < 1 {
			need = 1
		}
		return covered >= need
	}
	_ = src
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := StdNormalCDF(c.z); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("StdNormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestStdNormalQuantileRoundTrip(t *testing.T) {
	for p := 0.0001; p < 1; p += 0.0101 {
		z := StdNormalQuantile(p)
		back := StdNormalCDF(z)
		if !almostEqual(back, p, 1e-10) {
			t.Errorf("round trip failed at p=%v: z=%v back=%v", p, z, back)
		}
	}
}

func TestStdNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(StdNormalQuantile(0), -1) {
		t.Error("quantile(0) should be -Inf")
	}
	if !math.IsInf(StdNormalQuantile(1), 1) {
		t.Error("quantile(1) should be +Inf")
	}
	if !math.IsNaN(StdNormalQuantile(-0.1)) || !math.IsNaN(StdNormalQuantile(1.1)) {
		t.Error("quantile outside [0,1] should be NaN")
	}
	if got := StdNormalQuantile(0.975); !almostEqual(got, 1.959963984540054, 1e-9) {
		t.Errorf("quantile(0.975) = %v", got)
	}
}

func TestNormalQuantileScaling(t *testing.T) {
	// The p-quantile of N(μ, σ²) is μ + σ·z_p: the closed-form intervals
	// scale StdNormalQuantile by the standard error this way.
	x := 10 + 2*StdNormalQuantile(0.975)
	if got := StdNormalCDF((x - 10) / 2); !almostEqual(got, 0.975, 1e-12) {
		t.Errorf("P(N(10, 4) <= %v) = %v, want 0.975", x, got)
	}
	if want := 10 + 2*1.959963984540054; !almostEqual(x, want, 1e-9) {
		t.Errorf("0.975-quantile of N(10, 4) = %v, want %v", x, want)
	}
}

func TestStudentTQuantile(t *testing.T) {
	// Reference values (R qt()).
	cases := []struct {
		p, df, want, tol float64
	}{
		{0.975, 1, 12.706204736432095, 1e-9}, // exact formula branch
		{0.975, 2, 4.302652729911275, 1e-9},  // exact formula branch
		{0.975, 5, 2.570581835636197, 5e-3},
		{0.975, 10, 2.2281388519649385, 1e-3},
		{0.975, 30, 2.0422724563012373, 1e-4},
		{0.975, 1000, 1.9623390808264078, 1e-6},
	}
	for _, c := range cases {
		if got := StudentTQuantile(c.p, c.df); !almostEqual(got, c.want, c.tol) {
			t.Errorf("t-quantile(p=%v, df=%v) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
	if !math.IsNaN(StudentTQuantile(0.5, -1)) {
		t.Error("negative df should yield NaN")
	}
	// Symmetry.
	if got := StudentTQuantile(0.5, 7); !almostEqual(got, 0, 1e-12) {
		t.Errorf("median of t should be 0, got %v", got)
	}
}

func TestHistogramAndCDF(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-5) // clamps into first bucket
	h.Add(99) // clamps into last bucket
	if h.Count() != 12 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Buckets[0] != 2 || h.Buckets[9] != 2 {
		t.Errorf("clamping failed: %v", h.Buckets)
	}
	cdf := h.CDF()
	if cdf[9] != 1 {
		t.Errorf("CDF should end at 1, got %v", cdf[9])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Error("CDF not monotone")
		}
	}
}

func TestHistogramPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram with hi<=lo did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestECDF(t *testing.T) {
	f := ECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := f(c.x); got != c.want {
			t.Errorf("ECDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestGKSketchAccuracy(t *testing.T) {
	src := rng.New(7)
	const n = 50000
	const eps = 0.01
	sk := NewGKSketch(eps)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.LogNormal(0, 1.5)
		sk.Add(xs[i])
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := sk.Quantile(q)
		// Verify rank error: got must sit within ±2εn ranks of the target.
		rank := sort.SearchFloat64s(xs, got)
		target := q * n
		if math.Abs(float64(rank)-target) > 2*eps*n+1 {
			t.Errorf("q=%v: sketch rank %d vs target %v exceeds 2εn", q, rank, target)
		}
	}
}

func TestGKSketchSpaceBound(t *testing.T) {
	sk := NewGKSketch(0.01)
	src := rng.New(8)
	for i := 0; i < 200000; i++ {
		sk.Add(src.Float64())
	}
	sk.flush()
	// The GK bound is O((1/eps) log(eps n)); allow a lenient constant.
	limit := int(20.0 / 0.01)
	if len(sk.entries) > limit {
		t.Errorf("sketch holds %d tuples, want <= %d", len(sk.entries), limit)
	}
}

func TestGKSketchEmptyAndEdge(t *testing.T) {
	sk := NewGKSketch(0.05)
	if !math.IsNaN(sk.Quantile(0.5)) {
		t.Error("empty sketch quantile should be NaN")
	}
	sk.Add(42)
	if got := sk.Quantile(0.5); got != 42 {
		t.Errorf("single-value quantile = %v", got)
	}
	if !math.IsNaN(sk.Quantile(1.5)) {
		t.Error("q>1 should be NaN")
	}
	if sk.n+len(sk.buf) != 1 {
		t.Errorf("Count = %d", sk.n+len(sk.buf))
	}
}

func TestGKSketchPanicsOnBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGKSketch(0) did not panic")
		}
	}()
	NewGKSketch(0)
}

// Property: GK sketch min/max quantiles bracket every observation batch.
func TestQuickGKSketchBracketing(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		sk := NewGKSketch(0.05)
		n := 10 + s.Intn(500)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := s.NormFloat64() * 100
			sk.Add(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return sk.Quantile(0) >= lo-1e-9 && sk.Quantile(1) <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMomentsAdd(b *testing.B) {
	var m Moments
	for i := 0; i < b.N; i++ {
		m.Add(float64(i))
	}
}

func BenchmarkGKSketchAdd(b *testing.B) {
	sk := NewGKSketch(0.01)
	src := rng.New(1)
	for i := 0; i < b.N; i++ {
		sk.Add(src.Float64())
	}
}

func TestGKSketchMerge(t *testing.T) {
	src := rng.New(40)
	const n = 30000
	const eps = 0.01
	a := NewGKSketch(eps)
	b := NewGKSketch(eps)
	all := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		va := src.LogNormal(0, 1)
		vb := src.NormFloat64() * 10
		a.Add(va)
		b.Add(vb)
		all = append(all, va, vb)
	}
	a.Merge(b)
	if a.n+len(a.buf) != 2*n {
		t.Fatalf("merged count = %d", a.n+len(a.buf))
	}
	sort.Float64s(all)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got := a.Quantile(q)
		rank := sort.SearchFloat64s(all, got)
		target := q * float64(len(all))
		// Merged error bound: ~2x single-sketch error.
		if math.Abs(float64(rank)-target) > 4*eps*float64(len(all))+1 {
			t.Errorf("merged q=%v: rank %d vs target %v", q, rank, target)
		}
	}
}

func TestGKSketchMergeEdges(t *testing.T) {
	a := NewGKSketch(0.05)
	b := NewGKSketch(0.05)
	a.Merge(b) // both empty: no-op
	if a.n+len(a.buf) != 0 {
		t.Error("merging empties changed count")
	}
	b.Add(1)
	b.Add(2)
	a.Merge(b) // into empty: copies
	if a.n+len(a.buf) != 2 {
		t.Error("merge into empty failed")
	}
	if q := a.Quantile(0.5); q != 1 && q != 2 {
		t.Errorf("merged median = %v, want 1 or 2 (ε-approximate)", q)
	}
	c := NewGKSketch(0.05)
	a.Merge(c) // empty other: no-op
	if a.n+len(a.buf) != 2 {
		t.Error("merging an empty sketch changed count")
	}
}
