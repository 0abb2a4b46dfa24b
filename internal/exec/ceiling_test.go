package exec

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sql"
	"repro/internal/table"
)

// ceilingTable is T(Day, Hour, City, Shard, V) over n rows in random order:
// Day an int64 of 60 values, Hour a float64 of 24 with a NaN now and then,
// City five skewed strings, Shard an int64 of 7 values and V a continuous
// float64, with far more than maxRangeValues distinct values.
func ceilingTable(n int, seed uint64) *table.Table {
	src := rng.New(seed)
	day, shard := make(table.Int64Col, n), make(table.Int64Col, n)
	hour, v := make(table.Float64Col, n), make(table.Float64Col, n)
	city := make(table.StringCol, n)
	cities := []string{"NYC", "NYC", "NYC", "SF", "SF", "LA", "CHI", "BOS"}
	for i := range n {
		day[i] = int64(src.Intn(60))
		hour[i] = float64(src.Intn(24))
		if src.Intn(50) == 0 {
			hour[i] = math.NaN()
		}
		city[i] = cities[src.Intn(len(cities))]
		shard[i] = int64(src.Intn(7))
		v[i] = 60 + 20*src.NormFloat64()
	}
	return table.MustNew(table.Schema{
		{Name: "Day", Type: table.Int64}, {Name: "Hour", Type: table.Float64},
		{Name: "City", Type: table.String}, {Name: "Shard", Type: table.Int64},
		{Name: "V", Type: table.Float64},
	}, day, hour, city, shard, v)
}

// filteredMost is the most filtered rows one group holds in the sample
// scan: each group's projected vector is as long as count-first's survivor
// count at the scan's barrier.
func filteredMost(t *testing.T, st *StoredTable, key, where string) int {
	t.Helper()
	opt := plan.DefaultOptions(st.Data.NumRows())
	opt.BootstrapK, opt.Diagnostics = 0, false
	q := fmt.Sprintf("SELECT %s, AVG(V) FROM T WHERE %s GROUP BY %s", key, where, key)
	res, err := Run(context.Background(), mustPlan(t, q, opt), st, nil, Config{Workers: 2})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	most := 0
	for _, g := range res.Groups {
		most = max(most, len(g.Aggs[0].Values))
	}
	return most
}

// TestKeyCeilingBoundsCountFirst: over random windows on Day and Hour,
// GROUP BY keys and extra conjuncts on columns the ceiling cannot read (V,
// with too many distinct values, and a string), the ceiling is never below
// any group's filtered rows; and when the predicate is exactly the window —
// a range, "=" on one value, or an OR of two overlapping windows, which
// predRanges hulls to their union — it equals the most of them. A window on
// V alone bounds nothing: the ceiling is the whole sample's.
func TestKeyCeilingBoundsCountFirst(t *testing.T) {
	st := &StoredTable{Data: ceilingTable(8*table.ZoneBlockRows, 91), PopRows: 80 * table.ZoneBlockRows}
	ctx := context.Background()
	src := rng.New(17)
	cmp := []string{">=", ">"}
	windows := 0 // trials whose ceiling must equal a nonzero count
	for trial := range 120 {
		key := []string{"City", "Shard", "Day"}[src.Intn(3)]
		col, span := "Day", 60
		if src.Intn(3) == 0 {
			col, span = "Hour", 24
		}
		lo := src.Intn(span)
		hi := lo + src.Intn(span-lo)
		var window string
		exact := true
		switch src.Intn(4) {
		case 0:
			window = fmt.Sprintf("%s = %d", col, lo)
		case 1:
			mid := lo + (hi-lo)/2
			window = fmt.Sprintf("(%s >= %d AND %s <= %d OR %s >= %d AND %s <= %d)", col, lo, col, mid, col, mid, col, hi)
		default:
			op := cmp[src.Intn(2)]
			window = fmt.Sprintf("%s %s %d AND %s <= %d", col, op, lo, col, hi)
		}
		where := window
		switch src.Intn(3) {
		case 0:
			where += fmt.Sprintf(" AND V > %d", 30+src.Intn(60))
			exact = false
		case 1:
			where += " AND City = 'SF'"
			exact = false
		}
		pred := sql.MustParse("SELECT COUNT(*) FROM T WHERE " + where).(*sql.Select).Where
		c, err := st.KeyCeiling(ctx, key, pred, Config{})
		if err != nil {
			t.Fatal(err)
		}
		most := filteredMost(t, st, key, where)
		if exact && most > 0 {
			windows++
		}
		if c.Rows < most || exact && c.Rows != most {
			t.Errorf("trial %d: GROUP BY %s WHERE %s: ceiling %d (%s in %s), count-first's most %d",
				trial, key, where, c.Rows, c.Column, c.Window, most)
		}
		if c.Column != "" && c.Column != col {
			t.Errorf("trial %d: WHERE %s: window on %q", trial, where, c.Column)
		}
	}
	if windows < 30 {
		t.Errorf("%d trials of 120 were exact windows with rows, want 30 or more", windows)
	}
	whole, err := st.KeyCeiling(ctx, "City", nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pred := sql.MustParse("SELECT COUNT(*) FROM T WHERE V > 100").(*sql.Select).Where
	if c, err := st.KeyCeiling(ctx, "City", pred, Config{}); err != nil || c != whole || c.Column != "" {
		t.Errorf("V > 100: ceiling %+v (%v), want the whole sample's %+v", c, err, whole)
	}
	if most := filteredMost(t, st, "City", "Day >= 0"); whole.Rows != most {
		t.Errorf("whole-sample ceiling %d, count-first's most %d", whole.Rows, most)
	}
}

// TestKeyCeilingRacingBuilds: eight first calls racing on a fresh sample
// each may count the (City, Day) pair; all read one ceiling, the one a lone
// call reads.
func TestKeyCeilingRacingBuilds(t *testing.T) {
	tbl := ceilingTable(4*table.ZoneBlockRows, 5)
	pred := sql.MustParse("SELECT COUNT(*) FROM T WHERE Day >= 10 AND Day <= 19").(*sql.Select).Where
	want, err := (&StoredTable{Data: tbl}).KeyCeiling(context.Background(), "City", pred, Config{})
	if err != nil || want.Column != "Day" {
		t.Fatalf("lone ceiling %+v, %v", want, err)
	}
	st := &StoredTable{Data: tbl}
	got, errs := make([]Ceiling, 8), make([]error, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = st.KeyCeiling(context.Background(), "City", pred, Config{})
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c != want || errs[i] != nil {
			t.Errorf("call %d read %+v (%v), want %+v", i, c, errs[i], want)
		}
	}
}
