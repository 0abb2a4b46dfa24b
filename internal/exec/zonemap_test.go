package exec

import (
	"context"
	"math"
	"testing"

	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sql"
	"repro/internal/table"
)

func wherePred(t *testing.T, cond string) sql.Expr {
	t.Helper()
	return sql.MustParse("SELECT COUNT(*) FROM t WHERE " + cond).(*sql.Select).Where
}

// --- Predicate-range analysis ---

func TestPredRangesComparisons(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		cond               string
		lo, hi             float64
		loStrict, hiStrict bool
	}{
		{"x > 5", 5, inf, true, false},
		{"x >= 5", 5, inf, false, false},
		{"x < 5", -inf, 5, false, true},
		{"x <= 5", -inf, 5, false, false},
		{"x = 5", 5, 5, false, false},
		{"5 > x", -inf, 5, false, true}, // flipped: x < 5
		{"5 <= x", 5, inf, false, false},
		{"x > 2 AND x < 10", 2, 10, true, true},
		{"x > 2 AND x >= 4", 4, inf, false, false},
		{"x < 2 OR (x > 10 AND x < 20)", -inf, 20, false, true},
		{"x = 3 OR x = 7", 3, 7, false, false},
	} {
		ranges := predRanges(wherePred(t, tc.cond))
		r, ok := ranges["x"]
		if !ok {
			t.Errorf("%q: no range for x (got %v)", tc.cond, ranges)
			continue
		}
		if r.lo != tc.lo || r.hi != tc.hi ||
			r.loStrict != tc.loStrict || r.hiStrict != tc.hiStrict {
			t.Errorf("%q: range %+v, want [lo=%v strict=%v, hi=%v strict=%v]",
				tc.cond, r, tc.lo, tc.loStrict, tc.hi, tc.hiStrict)
		}
	}
}

func TestPredRangesConservativeWidening(t *testing.T) {
	// Unsupported constructs must yield no constraint, never a guess.
	for _, cond := range []string{
		"NOT (x > 5)",
		"x != 5",
		"x + 1 > 5",
		"x > y",
		"City = 'NYC'",
		"x < 2 OR y > 3", // no column constrained on both branches
	} {
		if r := predRanges(wherePred(t, cond)); len(r) != 0 {
			t.Errorf("%q: derived ranges %v, want none", cond, r)
		}
	}
	// AND with an unsupported branch keeps the supported side only.
	r := predRanges(wherePred(t, "City = 'NYC' AND x < 7"))
	if len(r) != 1 || r["x"].hi != 7 || !r["x"].hiStrict {
		t.Errorf("mixed AND: ranges %v", r)
	}
	// OR's hull must cover both branches even with shared columns.
	r = predRanges(wherePred(t, "(x > 2 AND y > 0) OR (x < 1 AND y < 10)"))
	if xr := r["x"]; !math.IsInf(xr.lo, -1) || !math.IsInf(xr.hi, 1) {
		t.Errorf("disjoint OR hull for x: %+v", xr)
	}
}

func TestColRangeExcludes(t *testing.T) {
	r := colRange{lo: 10, hi: 20, loStrict: true, hiStrict: false}
	for _, tc := range []struct {
		mn, mx float64
		want   bool
	}{
		{0, 9, true},                    // entirely below
		{0, 10, true},                   // touches strict lower bound only
		{0, 11, false},                  // overlaps
		{21, 30, true},                  // entirely above
		{20, 30, false},                 // touches inclusive upper bound
		{math.NaN(), math.NaN(), false}, // corrupt envelope: never skip
	} {
		if got := r.excludes(tc.mn, tc.mx); got != tc.want {
			t.Errorf("excludes(%v, %v) = %v, want %v", tc.mn, tc.mx, got, tc.want)
		}
	}
}

// --- Skipping never changes the selection ---

// clusteredSessions builds a Sessions table whose Time column is
// monotonically increasing (zone-clustered: block envelopes are tight and
// disjoint) with a string City column riding along.
func clusteredSessions(n int, seed uint64) *table.Table {
	src := rng.New(seed)
	times := make(table.Float64Col, n)
	cities := make(table.StringCol, n)
	names := []string{"NYC", "SF", "LA", "CHI"}
	for i := 0; i < n; i++ {
		times[i] = float64(i) + 0.25*src.Float64()
		cities[i] = names[src.Intn(len(names))]
	}
	return table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
	}, times, cities)
}

func TestZoneSkipPreservesSelection(t *testing.T) {
	n := 8*table.ZoneBlockRows + 500 // short tail block
	tbl := clusteredSessions(n, 21)
	tbl.BuildZones()
	anySkipped := false
	for _, cond := range []string{
		"Time < 100",
		"Time > 8300",
		"Time >= 2048 AND Time < 2100",
		"City = 'NYC' AND Time < 512",
		"Time < 100 OR Time > 8400",
		"Time = 3000",
		"NOT (City = 'NYC')", // no ranges: skip list must be nil
	} {
		pred := wherePred(t, cond)
		want, err := EvalPredicate(pred, tbl)
		if err != nil {
			t.Fatalf("%q: %v", cond, err)
		}
		skip, covered, skipped := zoneSkip(tbl, pred, predRanges(pred))
		if skipped > 0 {
			anySkipped = true
		}
		got, err := evalPredicateSkipping(context.Background(), pred, tbl, 0, tbl.NumRows(), skip, covered, nil, nil, nil, nil)
		if err != nil {
			t.Fatalf("%q: %v", cond, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: skipping selected %d rows, plain selected %d (skipped %d blocks)",
				cond, len(got), len(want), skipped)
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("%q: selection diverges at %d: %d != %d", cond, i, got[i], want[i])
			}
		}
	}
	if !anySkipped {
		t.Error("no predicate skipped any block on zone-clustered data")
	}
}

// TestZoneSkipSizesSelection: the selection holds every matching row in
// the blocks the skip list admits, and the partitions' admitted rows sum to
// those blocks' rows.
func TestZoneSkipSizesSelection(t *testing.T) {
	const blocks, admitted = 10, 3
	tbl := clusteredSessions(blocks*table.ZoneBlockRows, 24)
	tbl.BuildZones()
	skip := make([]bool, blocks)
	for b := range skip {
		skip[b] = b != admitted
	}
	sel, err := evalPredicateSkipping(context.Background(), wherePred(t, "Time >= 0"), tbl, 0, tbl.NumRows(), skip, nil, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != table.ZoneBlockRows || int(sel[0]) != admitted*table.ZoneBlockRows {
		t.Errorf("selected %d rows from %v, want block %d's %d", len(sel), sel[:min(len(sel), 1)], admitted, table.ZoneBlockRows)
	}
	for _, workers := range []int{1, 3, 7} {
		rows := 0
		bounds := unalignedRanges(tbl.NumRows(), workers)
		for i := 0; i < workers; i++ {
			rows += admittedRows(bounds[i], bounds[i+1], skip)
		}
		if rows != table.ZoneBlockRows {
			t.Errorf("workers=%d: partitions admit %d rows, want %d", workers, rows, table.ZoneBlockRows)
		}
	}
}

func TestZoneSkipAcrossPartitions(t *testing.T) {
	// The partitioned scan path hands evalPredicateSkipping a row range of
	// the table; ranges that start mid-block skip and select the same rows.
	n := 5*table.ZoneBlockRows + 77
	tbl := clusteredSessions(n, 22)
	tbl.BuildZones()
	pred := wherePred(t, "Time >= 1500 AND Time < 3600")
	want, err := EvalPredicate(pred, tbl)
	if err != nil {
		t.Fatal(err)
	}
	skip, covered, skipped := zoneSkip(tbl, pred, predRanges(pred))
	if skipped == 0 {
		t.Fatal("expected skippable blocks")
	}
	for _, workers := range []int{1, 2, 3, 7} {
		bounds := unalignedRanges(n, workers)
		var got []int32
		for i := 0; i < workers; i++ {
			sel, err := evalPredicateSkipping(context.Background(), pred, tbl, bounds[i], bounds[i+1], skip, covered, nil, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, sel...)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("workers=%d: row %d: %d != %d", workers, i, got[i], want[i])
			}
		}
	}
}

// --- End-to-end: pruning changes counters, never answers ---

func TestRunZoneMapSkipping(t *testing.T) {
	n := 64 * table.ZoneBlockRows
	// A group's SUM and COUNT are resampled on the fused kernel; the AVG
	// has a closed form and no resamples.
	const k = 20
	q := "SELECT City, AVG(Time), SUM(Time), COUNT(*) FROM Sessions WHERE Time < 655 GROUP BY City"
	run := func(zones bool, workers int) *Result {
		tbl := clusteredSessions(n, 23)
		if zones {
			tbl.BuildZones()
		}
		st := &StoredTable{Data: tbl, PopRows: n * 10}
		p := mustPlan(t, q, plan.Options{BootstrapK: k})
		res, err := Run(context.Background(), p, st, nil,
			Config{Workers: workers, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(false, 4)
	if plain.Counters.BlocksSkipped != 0 {
		t.Fatalf("no zones but %d blocks skipped", plain.Counters.BlocksSkipped)
	}
	pruned := run(true, 4)
	// Time < 655 touches only block 0 of 64: all 63 others are provably
	// empty and the filter is ~1% selective.
	if pruned.Counters.BlocksSkipped != 63 {
		t.Errorf("blocks skipped = %d, want 63", pruned.Counters.BlocksSkipped)
	}
	// Pruning is invisible everywhere else: identical selection accounting,
	// identical scan accounting (RowsScanned meters logical scan size), and
	// bit-identical answers and resample estimates.
	if pruned.Counters.RowsScanned != plain.Counters.RowsScanned ||
		pruned.Counters.RowsAfterFilter != plain.Counters.RowsAfterFilter {
		t.Errorf("pruned counters %+v vs plain %+v", pruned.Counters, plain.Counters)
	}
	if len(plain.Groups) != 4 {
		t.Fatalf("%d groups, want 4", len(plain.Groups))
	}
	for _, g := range plain.Groups {
		for ai, wantK := range []int{0, k, k} {
			if got := len(g.Aggs[ai].Bootstrap); got != wantK {
				t.Fatalf("group %q agg %d has %d resamples, want %d", g.Key, ai, got, wantK)
			}
		}
	}
	resultsEqual(t, "pruned", pruned, plain)
	// Skip accounting is worker-count invariant (the skip bitmap is
	// computed globally, not per partition).
	for _, workers := range []int{1, 3, 8} {
		if got := run(true, workers).Counters.BlocksSkipped; got != 63 {
			t.Errorf("workers=%d: blocks skipped = %d, want 63", workers, got)
		}
	}
}

// unalignedRanges splits n rows into k contiguous ranges [bounds[i],
// bounds[i+1]) of near-equal size whose boundaries ignore zone blocks, so a
// range starts at any row.
func unalignedRanges(n, k int) []int {
	bounds := make([]int, k+1)
	for i := range bounds {
		bounds[i] = i * n / k
	}
	return bounds
}
