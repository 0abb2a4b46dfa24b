// Package sample implements the sampling layer of the AQP system: simple
// random samples (with and without replacement), the disjoint subsample
// partitioning the diagnostic relies on, stratified samples, and a
// BlinkDB-style catalog of pre-built samples from which the engine picks
// the cheapest sample that satisfies a query's error bound.
package sample

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/table"
)

// WithReplacement draws n rows uniformly at random from xs with
// replacement, matching the paper's simple-random-sampling model (§2.1).
func WithReplacement(src *rng.Source, xs []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = xs[src.Intn(len(xs))]
	}
	return out
}

// WithoutReplacement draws n distinct rows uniformly at random from xs. It
// panics if n exceeds len(xs). For n much smaller than len(xs) it uses
// Floyd's algorithm; otherwise a partial Fisher–Yates shuffle.
func WithoutReplacement(src *rng.Source, xs []float64, n int) []float64 {
	m := len(xs)
	if n > m {
		panic(fmt.Sprintf("sample: cannot draw %d from %d without replacement", n, m))
	}
	if n*4 < m {
		// Floyd's algorithm: O(n) time, O(n) space.
		chosen := make(map[int]struct{}, n)
		out := make([]float64, 0, n)
		for j := m - n; j < m; j++ {
			t := src.Intn(j + 1)
			if _, dup := chosen[t]; dup {
				t = j
			}
			chosen[t] = struct{}{}
			out = append(out, xs[t])
		}
		// Shuffle so ordering carries no bias.
		src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	idx := src.Perm(m)[:n]
	out := make([]float64, n)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// TableWithReplacement draws n rows from tbl with replacement.
func TableWithReplacement(src *rng.Source, tbl *table.Table, n int) *table.Table {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = src.Intn(tbl.NumRows())
	}
	return tbl.Gather(idx)
}

// RowsWithoutReplacement draws the row ids of a uniform sample of n distinct
// rows out of popRows, in the shuffled order a stored sample keeps them. The
// ids are copied out of the permutation so that its popRows-long backing
// array is garbage before the (much smaller) sample is materialized.
func RowsWithoutReplacement(src *rng.Source, popRows, n int) []int {
	if n > popRows {
		panic(fmt.Sprintf("sample: cannot draw %d from %d rows", n, popRows))
	}
	return append([]int(nil), src.Perm(popRows)[:n]...)
}

// TableWithoutReplacement draws n distinct rows from tbl.
func TableWithoutReplacement(src *rng.Source, tbl *table.Table, n int) *table.Table {
	return tbl.Gather(RowsWithoutReplacement(src, tbl.NumRows(), n))
}

// Shuffled returns a uniformly shuffled copy of xs. A shuffled sample has
// the property the paper leans on throughout §5: any contiguous subset is
// itself a simple random sample, so diagnostic subsamples and parallel
// partitions require no further randomization.
func Shuffled(src *rng.Source, xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// DisjointSubsamples partitions the leading p*size elements of s into p
// disjoint, contiguous subsamples of the given size, as required by the
// diagnostic (Algorithm 1). s must already be a shuffled random sample.
// The returned slices share storage with s. An error is returned when s is
// too small to supply p disjoint subsamples.
func DisjointSubsamples(s []float64, size, p int) ([][]float64, error) {
	if size <= 0 || p <= 0 {
		return nil, fmt.Errorf("sample: invalid subsample shape size=%d p=%d", size, p)
	}
	if size*p > len(s) {
		return nil, fmt.Errorf(
			"sample: need %d rows for %d disjoint subsamples of %d, have %d",
			size*p, p, size, len(s))
	}
	out := make([][]float64, p)
	for i := 0; i < p; i++ {
		out[i] = s[i*size : (i+1)*size]
	}
	return out, nil
}

// Stratified draws up to capPerGroup rows per distinct key, a miniature of
// BlinkDB's stratified sample family that keeps rare groups represented.
// keys and xs must be parallel slices. The result preserves no particular
// order beyond per-group sampling.
func Stratified(src *rng.Source, keys []string, xs []float64, capPerGroup int) (outKeys []string, outXs []float64) {
	if len(keys) != len(xs) {
		panic("sample: Stratified requires parallel slices")
	}
	byKey := map[string][]int{}
	for i, k := range keys {
		byKey[k] = append(byKey[k], i)
	}
	// Deterministic group order for reproducibility.
	groups := make([]string, 0, len(byKey))
	for k := range byKey {
		groups = append(groups, k)
	}
	sort.Strings(groups)
	for _, k := range groups {
		idx := byKey[k]
		take := len(idx)
		if take > capPerGroup {
			take = capPerGroup
		}
		src.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx[:take] {
			outKeys = append(outKeys, k)
			outXs = append(outXs, xs[i])
		}
	}
	return outKeys, outXs
}

// Stored is one pre-built sample in a Catalog: a shuffled uniform sample of
// the underlying dataset together with bookkeeping the planner needs.
type Stored struct {
	Name   string
	Rows   []float64 // shuffled sample values (aggregation column view)
	Table  *table.Table
	PopN   int  // size of the dataset the sample was drawn from
	Cached bool // whether the storage layer keeps it in memory
}

// SamplingFraction returns len(Rows)/PopN.
func (s *Stored) SamplingFraction() float64 {
	if s.PopN == 0 {
		return 0
	}
	return float64(len(s.Rows)) / float64(s.PopN)
}

// Catalog is the set of samples the engine maintains over one dataset,
// ordered by size. At query time the engine picks the smallest sample
// whose predicted error meets the bound (BlinkDB's sample-selection step).
type Catalog struct {
	samples []*Stored // ascending by len(Rows)
}

// NewCatalog builds a catalog holding uniform shuffled samples of the given
// sizes drawn without replacement from data.
func NewCatalog(src *rng.Source, data []float64, sizes []int, popName string) (*Catalog, error) {
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	c := &Catalog{}
	for _, n := range sorted {
		if n <= 0 || n > len(data) {
			return nil, fmt.Errorf("sample: catalog size %d invalid for dataset of %d", n, len(data))
		}
		rows := WithoutReplacement(src.Split(), data, n)
		c.samples = append(c.samples, &Stored{
			Name: fmt.Sprintf("%s/sample-%d", popName, n),
			Rows: rows,
			PopN: len(data),
		})
	}
	return c, nil
}

// Samples returns the stored samples in ascending size order.
func (c *Catalog) Samples() []*Stored { return c.samples }

// Largest returns the biggest stored sample, or nil when empty.
func (c *Catalog) Largest() *Stored {
	if len(c.samples) == 0 {
		return nil
	}
	return c.samples[len(c.samples)-1]
}

// RequiredSampleSize estimates the sample size needed for a CLT-style mean
// estimate to reach the target relative error at confidence alpha, given
// pilot estimates of the data's mean and standard deviation:
//
//	n ≈ (z · σ / (ε · |μ|))²
//
// This is the calculation behind Fig. 1's "sample size suggested by an
// error estimation technique" and behind the catalog's selection rule.
func RequiredSampleSize(mean, stddev, relErr, alpha float64) int {
	if relErr <= 0 || mean == 0 {
		return 1 << 62 // unsatisfiable
	}
	z := stats.StdNormalQuantile(0.5 + alpha/2)
	n := z * stddev / (relErr * abs(mean))
	size := int(n*n) + 1
	if size < 1 {
		size = 1
	}
	return size
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Select returns the smallest stored sample of at least minRows, or the
// largest available if none is big enough (the engine then knows the bound
// may be missed and can fall back). It returns nil for an empty catalog.
func (c *Catalog) Select(minRows int) *Stored {
	for _, s := range c.samples {
		if len(s.Rows) >= minRows {
			return s
		}
	}
	return c.Largest()
}

// SelectForError picks a sample for a target relative error at confidence
// alpha using pilot moments measured on the smallest sample. The boolean
// reports whether the chosen sample is predicted to satisfy the bound.
func (c *Catalog) SelectForError(relErr, alpha float64) (*Stored, bool) {
	if len(c.samples) == 0 {
		return nil, false
	}
	pilot := c.samples[0]
	var m stats.Moments
	for _, x := range pilot.Rows {
		m.Add(x)
	}
	need := RequiredSampleSize(m.Mean(), m.Stddev(), relErr, alpha)
	got := c.Select(need)
	return got, len(got.Rows) >= need
}
