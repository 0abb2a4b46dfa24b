package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: same seed diverged: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestNewWithStreamIndependence(t *testing.T) {
	a := NewWithStream(7, 0)
	b := NewWithStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct streams produced %d collisions in 1000 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// Child and parent should not track each other.
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream collided %d times in 1000 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared style sanity check over 8 buckets.
	s := New(6)
	const buckets = 8
	const draws = 80000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(buckets)]++
	}
	expect := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Fatalf("bucket %d count %d too far from expected %v", b, c, expect)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(10)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("gaussian variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestParetoSupportAndMedian(t *testing.T) {
	s := New(12)
	const xm, alpha = 2.0, 3.0
	const n = 100000
	below := 0
	for i := 0; i < n; i++ {
		v := s.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("pareto variate %v below scale %v", v, xm)
		}
		// Median of Pareto(xm, alpha) is xm * 2^(1/alpha).
		if v < xm*math.Pow(2, 1/alpha) {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("pareto median check: %v of mass below true median, want ~0.5", frac)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(13)
	const mu, sigma = 1.5, 0.75
	const n = 100000
	below := 0
	for i := 0; i < n; i++ {
		if s.LogNormal(mu, sigma) < math.Exp(mu) {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("lognormal median check: %v below exp(mu), want ~0.5", frac)
	}
}

func TestPoisson1Moments(t *testing.T) {
	s := New(14)
	const n = 500000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := float64(s.Poisson1())
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("Poisson(1) mean = %v, want ~1", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Poisson(1) variance = %v, want ~1", variance)
	}
}

func TestPoisson1MatchesPMF(t *testing.T) {
	s := New(15)
	const n = 1000000
	var counts [6]int
	for i := 0; i < n; i++ {
		k := s.Poisson1()
		if k < len(counts) {
			counts[k]++
		}
	}
	// P(k) = e^-1/k!
	factorial := 1.0
	for k := 0; k < len(counts); k++ {
		if k > 0 {
			factorial *= float64(k)
		}
		want := math.Exp(-1) / factorial
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.003 {
			t.Errorf("P(Poisson1 = %d) = %v, want %v", k, got, want)
		}
	}
}

func TestPoissonMomentsAcrossRates(t *testing.T) {
	for _, lambda := range []float64{0.5, 1, 5, 29, 30, 100, 1000} {
		s := New(16)
		const n = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(lambda))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/n)+0.01*lambda {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
		if math.Abs(variance-lambda)/lambda > 0.05 {
			t.Errorf("Poisson(%v) variance = %v", lambda, variance)
		}
	}
}

func TestPoissonEdgeRates(t *testing.T) {
	s := New(17)
	if got := s.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := s.Poisson(-5); got != 0 {
		t.Errorf("Poisson(-5) = %d, want 0", got)
	}
}

func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{{10, 0.3}, {100, 0.5}, {1000, 0.01}, {100000, 0.2}, {50, 0.9}}
	for _, c := range cases {
		s := New(18)
		const trials = 20000
		sum := 0.0
		for i := 0; i < trials; i++ {
			v := s.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", c.n, c.p, v)
			}
			sum += float64(v)
		}
		mean := sum / trials
		want := float64(c.n) * c.p
		sd := math.Sqrt(want * (1 - c.p))
		if math.Abs(mean-want) > 5*sd/math.Sqrt(trials)+0.02*want+0.05 {
			t.Errorf("Binomial(%d,%v) mean = %v, want ~%v", c.n, c.p, mean, want)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	s := New(19)
	if got := s.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := s.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d", got)
	}
	if got := s.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d", got)
	}
}

func TestZipfSkew(t *testing.T) {
	src := New(20)
	z := NewZipf(src, 100, 1.2)
	const n = 100000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		k := z.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	// Rank 0 must dominate rank 1, which must dominate rank 10.
	if !(counts[0] > counts[1] && counts[1] > counts[10]) {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[1]=%d counts[10]=%d",
			counts[0], counts[1], counts[10])
	}
	// P(0)/P(1) should be about 2^1.2 ≈ 2.3.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.8 || ratio > 2.9 {
		t.Fatalf("Zipf rank ratio = %v, want ~2.3", ratio)
	}
}

func TestZipfPanicsOnEmptyDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(src, 0, 1) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

// mulHiLoLimbs is the 32-bit-limb 64×64→128 multiply Uint64n used before
// math/bits.Mul64: kept as the oracle that the intrinsic gives the same bits.
func mulHiLoLimbs(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	tLo, tHi := t&mask32, t>>32
	t = aLo*bHi + tLo
	hi = aHi*bHi + tHi + t>>32
	lo = a * b
	return hi, lo
}

// TestMul64MatchesLimbOracle: bits.Mul64 and the limb multiply agree on
// edge operands and on random ones, and Uint64n draws what the limb version
// of Lemire's method draws from the same stream.
func TestMul64MatchesLimbOracle(t *testing.T) {
	edges := []uint64{0, 1, 2, 3, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1,
		1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	check := func(a, b uint64) {
		t.Helper()
		h1, l1 := bits.Mul64(a, b)
		h2, l2 := mulHiLoLimbs(a, b)
		if h1 != h2 || l1 != l2 {
			t.Fatalf("%#x * %#x: Mul64 (%#x, %#x), limbs (%#x, %#x)", a, b, h1, l1, h2, l2)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	s := New(43)
	for i := 0; i < 200000; i++ {
		check(s.Uint64(), s.Uint64())
		check(s.Uint64()>>(i%64), s.Uint64()>>(i%61))
	}

	limbUint64n := func(s *Source, n uint64) uint64 {
		hi, lo := mulHiLoLimbs(s.Uint64(), n)
		if lo < n {
			thresh := (-n) % n
			for lo < thresh {
				hi, lo = mulHiLoLimbs(s.Uint64(), n)
			}
		}
		return hi
	}
	a, b := New(44), New(44)
	for i := 0; i < 100000; i++ {
		n := uint64(i%1000) + 1
		switch i % 4 {
		case 1:
			n = math.MaxUint64 - uint64(i)
		case 2:
			n = 1<<63 + uint64(i) // rejection is likely: lo < thresh often
		}
		if x, y := a.Uint64n(n), limbUint64n(b, n); x != y {
			t.Fatalf("draw %d, n=%d: Uint64n %d, limb oracle %d", i, n, x, y)
		}
	}
}

// Property: Uint64n(n) < n for all n > 0.
func TestQuickUint64nInRange(t *testing.T) {
	s := New(21)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the same (seed, stream) pair always reproduces the same prefix.
func TestQuickStreamReproducibility(t *testing.T) {
	f := func(seed, stream uint64) bool {
		a := NewWithStream(seed, stream)
		b := NewWithStream(seed, stream)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Poisson variates are non-negative for any rate.
func TestQuickPoissonNonNegative(t *testing.T) {
	s := New(22)
	f := func(lambdaRaw float64) bool {
		lambda := math.Mod(math.Abs(lambdaRaw), 200)
		return s.Poisson(lambda) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPoisson1(b *testing.B) {
	s := New(1)
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += s.Poisson1()
	}
	sinkInt = sum
}

func BenchmarkPoissonLarge(b *testing.B) {
	s := New(1)
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += s.Poisson(1000)
	}
	sinkInt = sum
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += s.NormFloat64()
	}
	sinkFloat = sum
}

var (
	sinkInt   int
	sinkFloat float64
)
