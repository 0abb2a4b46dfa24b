// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used throughout the repository:
// Poisson (with a fast path for rate 1, the heart of Poissonized
// resampling), Gaussian, exponential, Pareto, lognormal and Zipf.
//
// Every experiment in this repository is seeded, so that each figure and
// table can be regenerated bit-for-bit. The generator is a SplitMix64
// stream: it is fast, passes BigCrush, and — crucially for parallel
// resampling — can be split into independent child streams without
// coordination.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random stream. The zero value is not
// usable; obtain a Source from New or Split.
//
// Source is not safe for concurrent use. Parallel workers should each own a
// Source obtained via Split, which yields statistically independent streams.
type Source struct {
	state uint64
	gamma uint64 // odd Weyl increment; distinct gammas give distinct streams

	// cached second Gaussian variate from the polar method.
	hasGauss bool
	gauss    float64
}

const (
	goldenGamma = 0x9e3779b97f4a7c15
	mix1        = 0xbf58476d1ce4e5b9
	mix2        = 0x94d049bb133111eb
)

// New returns a Source seeded with seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed, gamma: goldenGamma}
}

// NewWithStream returns a Source on an independent stream identified by
// stream. Distinct stream values yield statistically independent sequences
// even under the same seed, which lets deterministic experiments assign one
// stream per (query, trial) pair.
func NewWithStream(seed, stream uint64) *Source {
	s := StreamSource(seed, stream)
	return &s
}

// StreamSource is the value form of NewWithStream: it returns a Source by
// value so hot loops that open one stream per (resample, block) pair can
// keep the generator on the stack instead of allocating. The stream
// derivation is identical to NewWithStream's.
func StreamSource(seed, stream uint64) Source {
	// Derive an odd gamma from the stream id by running it through the
	// SplitMix64 finalizer; force the low bit so the Weyl sequence has
	// period 2^64.
	g := mix64(stream*goldenGamma + goldenGamma)
	g |= 1
	return Source{state: mix64(seed + g), gamma: g}
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mix1
	z = (z ^ (z >> 27)) * mix2
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += s.gamma
	return mix64(s.state)
}

// Split returns a new Source whose future outputs are statistically
// independent of the receiver's. The receiver advances by one step.
func (s *Source) Split() *Source {
	seed := s.Uint64()
	gamma := mix64(s.Uint64()) | 1
	return &Source{state: seed, gamma: gamma}
}

// State returns the two words that determine every output the stream has
// yet to produce (a Gaussian variate cached by NormFloat64 aside). Two
// Sources with equal State draw the same values, which makes it the name of
// what a deterministic consumer is about to compute from the stream.
func (s *Source) State() (state, gamma uint64) { return s.state, s.gamma }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path: multiply-high; reject to remove modulo bias.
	x := s.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard Gaussian variate (mean 0, stddev 1) using
// the Marsaglia polar method with caching of the paired variate.
func (s *Source) NormFloat64() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.gauss = v * f
		s.hasGauss = true
		return u * f
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (s *Source) ExpFloat64() float64 {
	// Inversion; guard against log(0).
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Pareto returns a Pareto(xm, alpha) variate: support [xm, ∞), tail index
// alpha. Smaller alpha means a heavier tail; alpha <= 2 has infinite
// variance, alpha <= 1 infinite mean. These heavy tails are what break
// bootstrap and CLT error bars in the paper's §3.
func (s *Source) Pareto(xm, alpha float64) float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// LogNormal returns exp(N(mu, sigma^2)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// poisson1CDF is the CDF of Poisson(1) truncated at 18; the residual mass
// beyond 18 is below 1e-16 and is absorbed by the final bucket.
var poisson1CDF = func() [19]float64 {
	var cdf [19]float64
	p := math.Exp(-1) // P(X = 0)
	sum := p
	cdf[0] = sum
	for k := 1; k < 19; k++ {
		p /= float64(k) // P(X=k) = e^-1 / k!
		sum += p
		cdf[k] = sum
	}
	cdf[18] = 1
	return cdf
}()

// Poisson1 returns a Poisson(1) variate via table inversion. This is the
// inner loop of Poissonized resampling (each row of each resample draws one
// of these), so it is branch-light: the expected number of comparisons is
// ~2.4.
func (s *Source) Poisson1() int {
	u := s.Float64()
	// Unrolled common cases: P(0)=.3679, P(<=1)=.7358, P(<=2)=.9197.
	if u < poisson1CDF[1] {
		if u < poisson1CDF[0] {
			return 0
		}
		return 1
	}
	if u < poisson1CDF[2] {
		return 2
	}
	for k := 3; k < 19; k++ {
		if u < poisson1CDF[k] {
			return k
		}
	}
	return 18
}

// Poisson returns a Poisson(lambda) variate. Small rates use Knuth's
// product method; large rates use the PTRS transformed-rejection sampler of
// Hörmann, which is O(1) in lambda.
func (s *Source) Poisson(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda == 1:
		return s.Poisson1()
	case lambda < 30:
		return s.poissonKnuth(lambda)
	default:
		return s.poissonPTRS(lambda)
	}
}

func (s *Source) poissonKnuth(lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm ("The transformed
// rejection method for generating Poisson random variables", 1993).
func (s *Source) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := s.Float64() - 0.5
		v := s.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-logGamma(k+1) {
			return int(k)
		}
	}
}

func logGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}

// Zipf generates integers in [0, n) with P(k) ∝ 1/(k+1)^s, via precomputed
// CDF inversion. It models the skewed group-by key and city/session-key
// distributions in production traces.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s (s > 0).
func NewZipf(src *Source, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1
	return &Zipf{cdf: cdf, src: src}
}

// Next returns the next Zipf-distributed integer in [0, n).
func (z *Zipf) Next() int {
	u := z.src.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
