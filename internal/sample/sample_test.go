package sample

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestWithoutReplacementNoDuplicates(t *testing.T) {
	for _, n := range []int{10, 100, 400, 500} {
		ids := RowsWithoutReplacement(rng.New(uint64(n)), 500, n)
		if len(ids) != n {
			t.Fatalf("n=%d: len = %d", n, len(ids))
		}
		seen := map[int]bool{}
		for _, id := range ids {
			if id < 0 || id >= 500 || seen[id] {
				t.Fatalf("n=%d: row id %d out of range or repeated", n, id)
			}
			seen[id] = true
		}
	}
}

func TestWithoutReplacementPanicsWhenOverdrawn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overdraw did not panic")
		}
	}()
	RowsWithoutReplacement(rng.New(1), 5, 6)
}

func TestTableSampling(t *testing.T) {
	// A stored sample's row ids are a uniform draw: over many draws of 1
	// row out of 4, each row comes up about a quarter of the time.
	counts := make([]int, 4)
	src := rng.New(3)
	for i := 0; i < 4000; i++ {
		counts[RowsWithoutReplacement(src, 4, 1)[0]]++
	}
	for id, c := range counts {
		if c < 850 || c > 1150 {
			t.Errorf("row %d drawn %d times in 4000, want ~1000", id, c)
		}
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	src := rng.New(4)
	xs := seq(200)
	s := Shuffled(src, xs)
	if len(s) != len(xs) {
		t.Fatal("length changed")
	}
	// Original untouched.
	for i, v := range xs {
		if v != float64(i) {
			t.Fatal("Shuffled mutated its input")
		}
	}
	// The values are small integers, so their means are exact.
	if stats.Mean(s) != stats.Mean(xs) {
		t.Fatal("Shuffled is not a permutation")
	}
	// Not the identity with overwhelming probability.
	identical := true
	for i, v := range s {
		if v != float64(i) {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("Shuffled returned the identity permutation")
	}
}

// TestShuffledIsSourceShuffle: Shuffled draws what rng.Source.Shuffle draws,
// so the permutation is the one the diagnostic has always used, and leaves
// the source where Shuffle leaves it.
func TestShuffledIsSourceShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 5000} {
		a, b := rng.New(uint64(n)+9), rng.New(uint64(n)+9)
		want := seq(n)
		a.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
		got := Shuffled(b, seq(n))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: element %d is %v, Source.Shuffle put %v there", n, i, got[i], want[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: the sources diverge after the shuffle", n)
		}
	}
}

func TestDisjointSubsamples(t *testing.T) {
	s := seq(100)
	subs, err := DisjointSubsamples(s, 10, 5)
	if err != nil {
		t.Fatalf("DisjointSubsamples: %v", err)
	}
	if len(subs) != 5 {
		t.Fatalf("p = %d", len(subs))
	}
	seen := map[float64]bool{}
	for _, sub := range subs {
		if len(sub) != 10 {
			t.Fatalf("subsample size = %d", len(sub))
		}
		for _, v := range sub {
			if seen[v] {
				t.Fatalf("value %v appears in two subsamples", v)
			}
			seen[v] = true
		}
	}
}

func TestDisjointSubsamplesErrors(t *testing.T) {
	if _, err := DisjointSubsamples(seq(10), 5, 3); err == nil {
		t.Error("insufficient rows not rejected")
	}
	if _, err := DisjointSubsamples(seq(10), 0, 3); err == nil {
		t.Error("zero size not rejected")
	}
	if _, err := DisjointSubsamples(seq(10), 5, 0); err == nil {
		t.Error("zero p not rejected")
	}
}

func TestQuickDisjointSubsamplesDisjoint(t *testing.T) {
	f := func(sizeRaw, pRaw uint8) bool {
		size := int(sizeRaw)%20 + 1
		p := int(pRaw)%10 + 1
		s := seq(size * p)
		subs, err := DisjointSubsamples(s, size, p)
		if err != nil {
			return false
		}
		count := 0
		for _, sub := range subs {
			count += len(sub)
		}
		return count == size*p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRequiredSampleSizeScaling checks the 1/√n rule the engine's sample
// choice projects with, on with-replacement samples of a mean-10,
// standard-deviation-5 population: the 95% relative error of the sample mean
// is (1.96·5/10)/√n, so 96 rows meet a 10% bound, and 4× the rows halve the
// error.
func TestRequiredSampleSizeScaling(t *testing.T) {
	src := rng.New(11)
	pop := make([]float64, 100000)
	for i := range pop {
		pop[i] = 10 + 5*src.NormFloat64()
	}
	mu := stats.Mean(pop)
	relErr95 := func(n int) float64 {
		errs := make([]float64, 4000)
		for i := range errs {
			s := make([]float64, n)
			for j := range s {
				s[j] = pop[src.Intn(len(pop))]
			}
			errs[i] = math.Abs(stats.Mean(s)-mu) / mu
		}
		return stats.Quantile(errs, 0.95)
	}
	e96, e384 := relErr95(96), relErr95(384)
	if e96 < 0.09 || e96 > 0.11 {
		t.Errorf("95%% relative error on 96 rows = %v, want ~0.1", e96)
	}
	if ratio := e96 / e384; ratio < 1.8 || ratio > 2.2 {
		t.Errorf("4x the rows scaled the error by 1/%v, want ~1/2", ratio)
	}
}
