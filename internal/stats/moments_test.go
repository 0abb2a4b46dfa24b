package stats

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"repro/internal/rng"
)

// The numerical contract of Moments: the shifted-sum fold against a two-pass
// reference computed in 2048-bit arithmetic, which is exact for the inputs
// these tests feed it. Over n rows, with σ² the weighted population variance
// and k the shift,
//
//	|Mean − mean| ≤ 8(n+2)ε·(|mean| + √(σ² + (k−mean)²))
//	|Variance − σ²| ≤ 8(n+2)ε·(σ² + (k−mean)²)
//
// (ε = 2⁻⁵³). The second term of each scale is Σw(x−k)²/Σw, what the
// accumulators hold; since k is a row, it is at most (1 + W/w_k)·σ². Merge
// adds the two sides' errors and the rounding of their means' difference:
// 8(n+2)ε·(|mean|·σ + ε·mean²) more on the variance, with k the farther of
// the two sides' shifts.

const eps = 0x1p-53

// refMoments is the two-pass reference: the exact weighted mean, then the
// exact centred sum of squares about it, each rounded to float64 once.
type refMoments struct{ mean, variance float64 }

func twoPass(xs, ws []float64) refMoments {
	const prec = 2048
	f := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	w := func(i int) float64 {
		if ws == nil {
			return 1
		}
		return ws[i]
	}
	sw, swx := f(0), f(0)
	for i, x := range xs {
		if w(i) <= 0 {
			continue
		}
		sw.Add(sw, f(w(i)))
		swx.Add(swx, new(big.Float).SetPrec(prec).Mul(f(w(i)), f(x)))
	}
	mean := new(big.Float).SetPrec(prec).Quo(swx, sw)
	m2 := f(0)
	for i, x := range xs {
		if w(i) <= 0 {
			continue
		}
		d := new(big.Float).SetPrec(prec).Sub(f(x), mean)
		d.Mul(d, d)
		m2.Add(m2, d.Mul(d, f(w(i))))
	}
	m2.Quo(m2, sw)
	r := refMoments{}
	r.mean, _ = mean.Float64()
	r.variance, _ = m2.Float64()
	return r
}

// within fails the test unless m's mean and variance are within the
// contract's bound of ref over rows rows, with shift k; merged adds Merge's
// term.
func within(t *testing.T, what string, m *Moments, ref refMoments, rows int, k float64, merged bool) {
	t.Helper()
	tol := 8 * float64(rows+2) * eps
	spread := ref.variance + (k-ref.mean)*(k-ref.mean)
	if d := math.Abs(m.Mean() - ref.mean); !(d <= tol*(math.Abs(ref.mean)+math.Sqrt(spread))) {
		t.Errorf("%s: mean %v, reference %v: off by %.3g, bound %.3g", what, m.Mean(), ref.mean,
			d, tol*(math.Abs(ref.mean)+math.Sqrt(spread)))
	}
	varScale := spread
	if merged {
		varScale += math.Abs(ref.mean)*math.Sqrt(ref.variance) + eps*ref.mean*ref.mean
	}
	if d := math.Abs(m.Variance() - ref.variance); !(d <= tol*varScale) {
		t.Errorf("%s: variance %v, reference %v: off by %.3g, bound %.3g", what, m.Variance(), ref.variance,
			d, tol*varScale)
	}
}

func TestMomentsMatchTwoPass(t *testing.T) {
	const n = 10000
	src := rng.New(77)
	shifted := make([]float64, n) // 1e9 + N(0,1)
	outlier := make([]float64, n) // a 1e7 first row, then N(0,1)
	for i := range shifted {
		shifted[i] = 1e9 + src.NormFloat64()
		outlier[i] = src.NormFloat64()
	}
	outlier[0] = 1e7
	poisson := make([]float64, n) // zero weights among them
	fractional := make([]float64, n)
	for i := range poisson {
		poisson[i] = float64(src.Poisson(1))
		fractional[i] = src.Float64() * 3
	}
	poisson[0] = 0 // the first row absent: the shift is the first present one

	for _, c := range []struct {
		name   string
		xs, ws []float64
	}{
		{"1e9+N(0,1)", shifted, nil},
		{"1e7 outlier first", outlier, nil},
		{"1e9+N(0,1), Poisson weights", shifted, poisson},
		{"1e7 outlier first, Poisson weights", outlier, poisson},
		{"1e9+N(0,1), fractional weights", shifted, fractional},
	} {
		var m Moments
		if c.ws == nil {
			m.AddAll(c.xs)
		} else {
			for i, x := range c.xs {
				m.AddWeighted(x, c.ws[i])
			}
		}
		within(t, c.name, &m, twoPass(c.xs, c.ws), n, m.k, false)
	}

	// The textbook one-pass Σx² − (Σx)²/n loses every digit of the 1e9
	// data's variance; the shifted sums keep it near the two-pass value.
	var m Moments
	m.AddAll(shifted)
	if ref := twoPass(shifted, nil); math.Abs(m.Variance()-ref.variance) > 1e-6*ref.variance {
		t.Errorf("1e9+N(0,1): variance %v, reference %v", m.Variance(), ref.variance)
	}

	// Merge of accumulators whose shifts differ, in both orders.
	for _, c := range []struct {
		name string
		xs   []float64
		cut  int
	}{
		{"1e9+N(0,1)", shifted, 3000},
		{"1e7 outlier first", outlier, 1},
		{"1e7 outlier on the right", outlier, 0},
	} {
		var left, right Moments
		left.AddAll(c.xs[:c.cut])
		right.AddAll(c.xs[c.cut:])
		ref := twoPass(c.xs, nil)
		k := farther(ref.mean, c.xs[0], c.xs[c.cut]) // the two sides' shifts
		for _, order := range []struct {
			name    string
			into, o Moments
		}{{"left+right", left, right}, {"right+left", right, left}} {
			m := order.into
			m.Merge(&order.o)
			within(t, c.name+" "+order.name, &m, ref, n, k, true)
			var want Extremes
			for _, x := range c.xs {
				want.Add(x, x)
			}
			if m.Min() != want.Min() || m.Max() != want.Max() {
				t.Errorf("%s %s: extremes [%v, %v], want [%v, %v]", c.name, order.name, m.Min(), m.Max(), want.Min(), want.Max())
			}
		}
	}
}

// farther is whichever of a and b lies farther from mean.
func farther(mean, a, b float64) float64 {
	if math.Abs(b-mean) > math.Abs(a-mean) {
		return b
	}
	return a
}

// TestMomentsAddAllIsRepeatedAdd: AddAll leaves the bits a loop of Add
// leaves, and so does a loop of AddWeighted(x, 1), any NaN counting as one —
// from empty and after earlier rows, over NaN, ±Inf and both zeros — and
// their reads return the same bits.
func TestMomentsAddAllIsRepeatedAdd(t *testing.T) {
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -3, 1e9, 1e-300, 7.5}
	src := rng.New(5)
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, src.Intn(12))
		for i := range xs {
			if src.Intn(3) == 0 {
				xs[i] = pool[src.Intn(len(pool))]
			} else {
				xs[i] = 1e6 + src.NormFloat64()
			}
		}
		cut := 0
		if len(xs) > 0 {
			cut = src.Intn(len(xs) + 1)
		}
		var a, b, w Moments
		for _, x := range xs {
			a.Add(x)
			w.AddWeighted(x, 1)
		}
		for _, x := range xs[:cut] {
			b.Add(x)
		}
		b.AddAll(xs[cut:])
		for _, o := range []struct {
			name string
			m    *Moments
		}{{"AddAll", &b}, {"AddWeighted", &w}} {
			if bitsOf(&a) != bitsOf(o.m) {
				t.Fatalf("%v cut at %d: Add leaves %v, %s %v", xs, cut, a, o.name, *o.m)
			}
			for _, read := range []func(*Moments) float64{(*Moments).Mean, (*Moments).Variance, (*Moments).SampleVariance} {
				if x, y := read(&a), read(o.m); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("%v cut at %d: Add reads %v (%#x), %s %v (%#x)", xs, cut, x, math.Float64bits(x), o.name, y, math.Float64bits(y))
				}
			}
		}
	}
}

// bitsOf is m's state, bit for bit, with every NaN one NaN.
func bitsOf(m *Moments) [7]uint64 {
	seen := uint64(0)
	if m.ext.seen {
		seen = 1
	}
	b := func(x float64) uint64 { return math.Float64bits(canonical(x)) }
	return [7]uint64{b(m.n), b(m.k), b(m.s1), b(m.s2), b(m.ext.lo), b(m.ext.hi), seen}
}

// TestMomentsNonFinite: NaN, ±Inf and empty fold as Welford's update did. A
// NaN anywhere is a NaN mean and variance, an infinity is a NaN variance, and
// one infinite row — alone or last — is that infinity's mean; an infinite
// first row followed by others is a NaN mean. (Where they part: an infinity
// between finite rows is now that infinity's mean, where Welford's next row
// turned it into NaN.)
func TestMomentsNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		xs             []float64
		mean, variance float64
	}{
		{nil, nan, nan},
		{[]float64{nan}, nan, nan},
		{[]float64{1, nan, 2}, nan, nan},
		{[]float64{inf}, inf, nan},
		{[]float64{-inf}, -inf, nan},
		{[]float64{1, 2, inf}, inf, nan},
		{[]float64{inf, 1}, nan, nan},
		{[]float64{inf, inf}, nan, nan},
		{[]float64{1, inf, -inf}, nan, nan},
		{[]float64{1, inf, 2}, inf, nan},
	} {
		var m Moments
		m.AddAll(c.xs)
		same := func(got, want float64) bool { return got == want || math.IsNaN(got) && math.IsNaN(want) }
		if !same(m.Mean(), c.mean) || !same(m.Variance(), c.variance) || !same(m.SampleVariance(), c.variance) {
			t.Errorf("%v: mean %v variance %v sample variance %v, want mean %v and variance %v",
				c.xs, m.Mean(), m.Variance(), m.SampleVariance(), c.mean, c.variance)
		}
	}
}

// FuzzMoments folds arbitrary float bits with arbitrary weights, 16 bytes a
// row, sequentially and as two accumulators merged in both orders. Any input
// must not panic, a present NaN row makes the mean NaN, and Merge keeps the
// extremes' rule. The same rows, tamed onto the range the bound is stated
// for, are then held to it, sequential and merged.
func FuzzMoments(f *testing.F) {
	row := func(x, w float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(x))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
	}
	var seed []byte
	for _, r := range [][2]float64{{1e9 + 0.5, 1}, {1e9 - 0.25, 2}, {1e9, 0}, {1e9 + 3, 0.5}} {
		seed = append(seed, row(r[0], r[1])...)
	}
	f.Add(uint8(2), seed)
	f.Add(uint8(0), append(row(1e7, 1), row(0.5, 1)...))
	f.Add(uint8(1), append(row(math.NaN(), 1), row(math.Inf(1), 1)...))
	f.Fuzz(func(t *testing.T, cut uint8, data []byte) {
		n := min(len(data)/16, 256)
		xs, ws := make([]float64, n), make([]float64, n)
		nanPresent := false
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			ws[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			nanPresent = nanPresent || !(ws[i] <= 0) && math.IsNaN(xs[i])
		}
		c := 0
		if n > 0 {
			c = int(cut) % (n + 1)
		}
		all, lr, rl := foldSplit(xs, ws, c)
		if nanPresent && !math.IsNaN(all.Mean()) {
			t.Fatalf("a present NaN row, yet the mean is %v", all.Mean())
		}
		if !nanPresent {
			for _, m := range []*Moments{&lr, &rl} {
				if m.Min() != all.Min() && !(math.IsNaN(m.Min()) && math.IsNaN(all.Min())) ||
					m.Max() != all.Max() && !(math.IsNaN(m.Max()) && math.IsNaN(all.Max())) {
					t.Fatalf("merged extremes [%v, %v], sequential [%v, %v]", m.Min(), m.Max(), all.Min(), all.Max())
				}
			}
		}

		for i := range xs {
			xs[i], ws[i] = tameValue(xs[i]), tameWeight(ws[i])
		}
		all, lr, rl = foldSplit(xs, ws, c)
		if !all.ext.seen {
			return
		}
		ref := twoPass(xs, ws)
		within(t, "sequential", &all, ref, n, all.k, false)
		// The merged bound takes the farther of the two sides' shifts.
		k := all.k
		for i, x := range xs {
			if ws[i] > 0 && i >= c {
				k = farther(ref.mean, k, x)
				break
			}
		}
		within(t, "left+right", &lr, ref, n, k, true)
		within(t, "right+left", &rl, ref, n, k, true)
	})
}

// foldSplit folds the rows in order into all, and rows [0, cut) and
// [cut, n) into two accumulators merged both ways round.
func foldSplit(xs, ws []float64, cut int) (all, lr, rl Moments) {
	var left, right Moments
	for i, x := range xs {
		all.AddWeighted(x, ws[i])
		if i < cut {
			left.AddWeighted(x, ws[i])
		} else {
			right.AddWeighted(x, ws[i])
		}
	}
	lr, rl = left, right
	lr.Merge(&right)
	rl.Merge(&left)
	return all, lr, rl
}

// tameValue keeps x when it is 0 or |x| is in [1e-100, 1e100], and
// otherwise builds a value in that range from x's bits: its sign, its
// mantissa and its exponent folded into [−300, 300).
func tameValue(x float64) float64 {
	if ax := math.Abs(x); ax == 0 || ax >= 1e-100 && ax <= 1e100 {
		return x
	}
	bits := math.Float64bits(x)
	frac := 1 + float64(bits&(1<<52-1))/(1<<52)
	v := math.Ldexp(frac, int(bits>>52&0x7ff)%600-300)
	if bits>>63 != 0 {
		v = -v
	}
	return v
}

// tameWeight keeps w when it is 0 or in [1e-3, 1e3], and is otherwise a
// Poisson-like multiplicity 0–3 from its low bits.
func tameWeight(w float64) float64 {
	if w == 0 || w >= 1e-3 && w <= 1e3 {
		return w
	}
	return float64(math.Float64bits(w) & 3)
}

// welford is Moments as it was before its shifted sums, Welford's update
// with a division per row, kept as the benchmark's reference.
type welford struct {
	n, mean, m2 float64
	ext         Extremes
}

func (m *welford) addWeighted(x, w float64) {
	if w <= 0 {
		return
	}
	m.ext.Add(x, x)
	m.n += w
	delta := x - m.mean
	m.mean += delta * w / m.n
	m.m2 += w * delta * (x - m.mean)
}

// BenchmarkMomentsFold prices the accumulator alone over a 50,000-row
// vector, in ns per row: the shifted-sum fold (AddAll, and Add row by row)
// against Welford's update row by row, into one accumulator and, as a
// grouped exact scan folds, into 40 that the rows alternate between at
// random. With one accumulator Welford's division waits for the one before;
// with 40 the divisions overlap, and what counts is that Add inlines.
func BenchmarkMomentsFold(b *testing.B) {
	src := rng.New(3)
	xs := make([]float64, 50000)
	groups := make([]uint8, len(xs))
	for i := range xs {
		xs[i] = 60 + 20*src.NormFloat64()
		groups[i] = uint8(src.Intn(40))
	}
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(xs)), "ns/row")
	}
	var sink float64
	b.Run("shifted-AddAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var m Moments
			m.AddAll(xs)
			sink += m.Variance()
		}
		perRow(b)
	})
	b.Run("shifted-Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var m Moments
			for _, x := range xs {
				m.Add(x)
			}
			sink += m.Variance()
		}
		perRow(b)
	})
	b.Run("welford-Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var m welford
			for _, x := range xs {
				m.addWeighted(x, 1)
			}
			sink += m.m2 / m.n
		}
		perRow(b)
	})
	b.Run("shifted-Add-40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ms [40]Moments
			for r, x := range xs {
				ms[groups[r]].Add(x)
			}
			sink += ms[0].Variance()
		}
		perRow(b)
	})
	b.Run("welford-Add-40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ms [40]welford
			for r, x := range xs {
				ms[groups[r]].addWeighted(x, 1)
			}
			sink += ms[0].m2 / ms[0].n
		}
		perRow(b)
	})
	if math.IsNaN(sink) {
		b.Fatal("NaN variance")
	}
}
