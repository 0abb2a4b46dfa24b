package exec

import (
	"context"
	"math"
	"testing"

	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/table"
)

// coveredCorpus is a table whose ascending int64 k and integral float64 kf
// make covered blocks, beside the values that could tell an envelope fold
// from a row fold: ±0 in varying order (pz), NaN first and inside blocks
// (nan, and nanFirst whose very first row is NaN), integral floats with a
// NaN-free codec (u), int64 values past 2^53 (big) and an ascending float
// key with one NaN (kn), which no envelope may cover.
func coveredCorpus() *table.Table {
	n := 6*table.BlockRows + 200
	src := rng.New(31)
	k := make(table.Int64Col, n)
	kf := make(table.Float64Col, n)
	kn := make(table.Float64Col, n)
	u := make(table.Float64Col, n)
	pz := make(table.Float64Col, n)
	nan := make(table.Float64Col, n)
	nanFirst := make(table.Float64Col, n)
	big := make(table.Int64Col, n)
	negZero := math.Copysign(0, -1)
	for i := 0; i < n; i++ {
		k[i] = int64(i / 300)
		kf[i] = float64(i / 300)
		kn[i] = float64(i / 300)
		u[i] = float64(src.Intn(1000))
		pz[i] = 0
		if src.Intn(2) == 0 {
			pz[i] = negZero
		}
		nan[i] = float64(src.Intn(50)) - 25
		nanFirst[i] = nan[i]
		big[i] = 1<<60 + int64(src.Intn(5)) - 2
	}
	// Block 1 starts with +0 and block 3 with -0, each holding the other.
	pz[table.BlockRows], pz[table.BlockRows+1] = 0, negZero
	pz[3*table.BlockRows], pz[3*table.BlockRows+1] = negZero, 0
	nan[2*table.BlockRows] = math.NaN() // first of block 2: its envelope is NaN,
	nan[2*table.BlockRows+5] = -1000    // and behind it the column's extremes
	nan[2*table.BlockRows+6] = 1000
	nan[4*table.BlockRows+500] = math.NaN() // inside block 4: the envelope hides it
	nan[5*table.BlockRows-1] = math.NaN()   // last of block 4
	nanFirst[0] = math.NaN()                // the fold's first value
	kn[3*table.BlockRows+17] = math.NaN()   // fails every comparison on kn
	return table.MustNew(table.Schema{
		{Name: "k", Type: table.Int64}, {Name: "kf", Type: table.Float64},
		{Name: "kn", Type: table.Float64}, {Name: "u", Type: table.Float64},
		{Name: "pz", Type: table.Float64}, {Name: "nan", Type: table.Float64},
		{Name: "nanFirst", Type: table.Float64}, {Name: "big", Type: table.Int64},
	}, k, kf, kn, u, pz, nan, nanFirst, big)
}

var coveredQueries = []string{
	"SELECT MIN(u), MAX(u), COUNT(*) FROM T WHERE k <= 9",
	"SELECT MIN(pz), MAX(pz), COUNT(*) FROM T WHERE k >= 3 AND k < 20",
	"SELECT MIN(pz), MAX(pz) FROM T",
	"SELECT MIN(pz), MAX(pz) FROM T WHERE kf > 3",
	"SELECT MIN(nan), MAX(nan), COUNT(*) FROM T WHERE kf > 2",
	"SELECT MIN(nan), MAX(nan) FROM T",
	"SELECT MIN(nanFirst), MAX(nanFirst), COUNT(*) FROM T WHERE k < 15",
	"SELECT MIN(big), MAX(big), COUNT(*) FROM T WHERE k >= 1",
	"SELECT COUNT(*) FROM T WHERE kn >= 0",
	"SELECT COUNT(*), MAX(kn) FROM T WHERE kn >= 2 AND k <= 12",
	"SELECT MAX(k), MIN(kf), COUNT(*) FROM T WHERE k = 7",
	"SELECT MIN(u), AVG(u), SUM(pz) FROM T WHERE k <= 9",
	"SELECT MAX(u), COUNT(*) FROM T WHERE k <= 9 OR k > 20",
	"SELECT MIN(k), MAX(k), MAX(kf), COUNT(*) FROM T WHERE k >= 2",
	"SELECT MAX(u), MIN(u * 2) FROM T WHERE 4 <= k AND kf < 11.5",
	"SELECT COUNT(*) FROM T WHERE k > 100",
}

// TestCoveredBlocksMatchDecoded: answers read off covered blocks — the
// predicate skipped, MIN, MAX and COUNT taken from envelopes and row counts
// — are bit-identical to the plain reference that evaluates every row, on
// every backing, through ±0 in either order, NaN first in the fold, first
// in a block and hidden inside one, and int64 values past 2^53.
func TestCoveredBlocksMatchDecoded(t *testing.T) {
	raw := coveredCorpus()
	variants := backingVariants(t, raw)
	for _, q := range coveredQueries {
		p := mustPlan(t, q, plan.Options{})
		want, err := referenceExact(p, raw, nil)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		for name, data := range variants {
			got, err := Run(context.Background(), p, &StoredTable{Data: data}, nil, Config{Workers: 2})
			if err != nil {
				t.Fatalf("%s %q: %v", name, q, err)
			}
			groupsBitEqual(t, name+": "+q, got.Groups, want)
		}
	}
}

// TestCoveredBlocksDecodeNothing counts the work covered blocks save: with
// k = row/300, k <= 9 admits blocks 0-2, covers 0 and 1 and leaves block 2
// partial, so an ungrouped MIN/MAX/COUNT decodes k and u there only; a
// grouped or non-extreme query still decodes its inputs everywhere but
// never evaluates the predicate on a covered block.
func TestCoveredBlocksDecodeNothing(t *testing.T) {
	comp := table.Compress(coveredCorpus())
	pred := wherePred(t, "k <= 9")
	skip, covered, skipped := zoneSkip(comp, pred, predRanges(pred))
	if skipped != 4 || len(covered) != 7 || !covered[0] || !covered[1] || covered[2] {
		t.Fatalf("skip %v (%d), covered %v", skip, skipped, covered)
	}
	for _, tc := range []struct {
		q       string
		decoded int64
	}{
		{"SELECT MIN(u), MAX(u), COUNT(*) FROM T WHERE k <= 9", 2},
		{"SELECT COUNT(*) FROM T WHERE k <= 9", 1},
		{"SELECT MAX(u) FROM T", 0},
		// AVG needs every value: u decodes on all three blocks, k on block 2.
		{"SELECT MAX(u), AVG(u) FROM T WHERE k <= 9", 4},
		// An envelope past 2^53 cannot stand for its rows.
		{"SELECT MAX(big) FROM T WHERE k <= 9", 4},
		// The range admits blocks 2-4 and holds throughout block 3: kf's
		// integral codec rules out a NaN there, kn's NaN keeps its block 3
		// off the integral codec, so the envelope may hide one.
		{"SELECT MIN(u) FROM T WHERE kf >= 10 AND kf <= 13", 4},
		{"SELECT MIN(u) FROM T WHERE kn >= 10 AND kn <= 13", 6},
	} {
		p := mustPlan(t, tc.q, plan.Options{})
		res, err := Run(context.Background(), p, &StoredTable{Data: comp}, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.BlocksDecoded != tc.decoded {
			t.Errorf("%q: %d blocks decoded, want %d", tc.q, res.Counters.BlocksDecoded, tc.decoded)
		}
	}
}

// TestCoveredSampleScanSelection: the sample scan takes every row of a
// covered block without evaluating the predicate, and selects exactly the
// rows the plain evaluation does, across range splits.
func TestCoveredSampleScanSelection(t *testing.T) {
	comp := table.Compress(coveredCorpus())
	for _, cond := range []string{"k <= 9", "k >= 3 AND k < 20", "kf > 2 AND k < 18", "kn >= 2"} {
		pred := wherePred(t, cond)
		want, err := EvalPredicate(pred, comp)
		if err != nil {
			t.Fatal(err)
		}
		skip, covered, _ := zoneSkip(comp, pred, predRanges(pred))
		if cond != "kn >= 2" && covered == nil {
			t.Fatalf("%q: no block covered", cond)
		}
		for _, workers := range []int{1, 2, 3} {
			var got []int32
			bounds := blockRanges(comp.NumRows(), workers)
			for i := 0; i < workers; i++ {
				var m decodeMeter
				sel, err := evalPredicateSkipping(context.Background(), pred, comp, bounds[i], bounds[i+1], skip, covered, &m, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, sel...)
			}
			if len(got) != len(want) {
				t.Fatalf("%q workers=%d: %d rows, want %d", cond, workers, len(got), len(want))
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("%q workers=%d: row %d: %d != %d", cond, workers, i, got[i], want[i])
				}
			}
		}
	}
}
