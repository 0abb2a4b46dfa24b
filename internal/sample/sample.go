// Package sample implements the sampling layer of the AQP system: the row
// ids of a simple random sample drawn without replacement, the shuffle that
// makes any contiguous slice of a sample a sample itself, and the disjoint
// subsample partitioning the diagnostic relies on. The engine's catalog of
// built samples, and the choice of which one a query runs on, are core's.
// The paper's with-replacement model (§2.1), which only its figures draw
// from, is paper/'s.
package sample

import (
	"fmt"

	"repro/internal/rng"
)

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

// Shuffled returns a uniformly shuffled copy of xs. A shuffled sample has
// the property the paper leans on throughout §5: any contiguous subset is
// itself a simple random sample, so diagnostic subsamples and parallel
// partitions require no further randomization.
func Shuffled(src *rng.Source, xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	// rng.Source.Shuffle's draws, without its per-swap closure call.
	for i := len(out) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
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
