package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"strings"
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
// scan, and all of them: each group's projected vector is as long as
// count-first's survivor count at the scan's barrier.
func filteredMost(t *testing.T, st *StoredTable, key, where string) (most, total int) {
	t.Helper()
	opt := plan.DefaultOptions(st.Data.NumRows())
	opt.BootstrapK, opt.Diagnostics = 0, false
	q := fmt.Sprintf("SELECT %s, AVG(V) FROM T WHERE %s GROUP BY %s", key, where, key)
	res, err := Run(context.Background(), mustPlan(t, q, opt), st, nil, Config{Workers: 2})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for _, g := range res.Groups {
		most = max(most, len(g.Aggs[0].Values))
		total += len(g.Aggs[0].Values)
	}
	return most, total
}

// TestKeyCeilingBoundsCountFirst: over random windows on Day and Hour,
// GROUP BY keys and extra conjuncts — on V, which has too many distinct
// values for the ceiling to read, or an equality on City — the ceiling is
// never below any group's filtered rows; and when the predicate is exactly
// what the ceiling reads — a window (a range, "=" on one value, or an OR of
// two overlapping windows, which predRanges hulls to their union), with or
// without City = 'SF' under GROUP BY City — it equals the most of them. The
// restriction it names is the window's or the equality's. A window on V
// alone bounds nothing: the ceiling is the whole sample's. Fixed cells read
// a string equality: alone, with a window, under GROUP BY another column, as
// an OR of two literals, with a literal the sample lacks, and ungrouped,
// where the ceiling bounds the query's one group.
func TestKeyCeilingBoundsCountFirst(t *testing.T) {
	st := &StoredTable{Data: ceilingTable(8*table.ZoneBlockRows, 91), PopRows: 80 * table.ZoneBlockRows}
	ctx := context.Background()
	src := rng.New(17)
	ops := []string{">=", ">"}
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
		exact, equality := true, false
		switch src.Intn(4) {
		case 0:
			window = fmt.Sprintf("%s = %d", col, lo)
		case 1:
			mid := lo + (hi-lo)/2
			window = fmt.Sprintf("(%s >= %d AND %s <= %d OR %s >= %d AND %s <= %d)", col, lo, col, mid, col, mid, col, hi)
		default:
			op := ops[src.Intn(2)]
			window = fmt.Sprintf("%s %s %d AND %s <= %d", col, op, lo, col, hi)
		}
		where := window
		switch src.Intn(3) {
		case 0:
			where += fmt.Sprintf(" AND V > %d", 30+src.Intn(60))
			exact = false
		case 1:
			where += " AND City = 'SF'"
			exact, equality = key == "City", true
		}
		pred := sql.MustParse("SELECT COUNT(*) FROM T WHERE " + where).(*sql.Select).Where
		c, err := st.KeyCeiling(ctx, key, pred, Config{})
		if err != nil {
			t.Fatal(err)
		}
		most, _ := filteredMost(t, st, key, where)
		if exact && most > 0 {
			windows++
		}
		if c.Rows < most || exact && c.Rows != most {
			t.Errorf("trial %d: GROUP BY %s WHERE %s: ceiling %d (%s in %s), count-first's most %d",
				trial, key, where, c.Rows, c.Column, c.Window, most)
		}
		if c.Column != "" && c.Column != col && !(equality && c.Column == "City") {
			t.Errorf("trial %d: WHERE %s: restriction on %q", trial, where, c.Column)
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
	if most, _ := filteredMost(t, st, "City", "Day >= 0"); whole.Rows != most {
		t.Errorf("whole-sample ceiling %d, count-first's most %d", whole.Rows, most)
	}

	for _, cell := range []struct {
		key, where string // key "": the ungrouped query
		exact      bool
		ceiling    string // the restriction named: Column + " " + Window
	}{
		{"", "City = 'BOS'", true, "City = 'BOS'"},
		{"City", "City = 'BOS'", true, "City = 'BOS'"},
		{"", "City = 'BOS' AND Day >= 10 AND Day <= 19", true, "City = 'BOS' and Day in [10, 19]"},
		{"City", "Hour < 6 AND City = 'BOS'", true, "City = 'BOS' and Hour in (-Inf, 6)"},
		{"Shard", "City = 'BOS'", false, "City = 'BOS'"},
		{"Shard", "City = 'BOS' AND Day < 30", false, "City = 'BOS' and Day in (-Inf, 30)"},
		{"", "City = 'BOS' OR 'LA' = City", true, "City in ('BOS', 'LA')"},
		{"City", "City = 'LA' OR City = 'BOS'", true, "City in ('BOS', 'LA')"},
		{"", "City = 'BOS' AND V > 60", false, "City = 'BOS'"},
		{"", "City = 'XX'", true, "City = 'XX'"},
		{"Shard", "City = 'XX' AND Day < 30", true, "City = 'XX'"},
		{"", "City = 'BOS' AND City = 'LA'", true, "City in ()"},
		{"", "City = 'BOS' OR Day = 3", false, ""},
	} {
		pred := sql.MustParse("SELECT COUNT(*) FROM T WHERE " + cell.where).(*sql.Select).Where
		c, err := st.KeyCeiling(ctx, cell.key, pred, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// The ungrouped query's one group holds every group's rows.
		most, total := filteredMost(t, st, cmp.Or(cell.key, "Shard"), cell.where)
		if cell.key == "" {
			most = total
		}
		if c.Rows < most || cell.exact && c.Rows != most {
			t.Errorf("GROUP BY %q WHERE %s: ceiling %d, count-first's most %d", cell.key, cell.where, c.Rows, most)
		}
		if got := strings.TrimSpace(c.Column + " " + c.Window); got != cell.ceiling {
			t.Errorf("GROUP BY %q WHERE %s: restriction %q, want %q", cell.key, cell.where, got, cell.ceiling)
		}
	}
	// An ungrouped window reads no count: the one group may hold the sample.
	fresh := &StoredTable{Data: st.Data}
	pred = sql.MustParse("SELECT COUNT(*) FROM T WHERE Day < 30").(*sql.Select).Where
	if c, err := fresh.KeyCeiling(ctx, "", pred, Config{}); err != nil || c != (Ceiling{Rows: st.Data.NumRows()}) {
		t.Errorf("ungrouped Day < 30: ceiling %+v (%v), want the sample's %d rows", c, err, st.Data.NumRows())
	}
	fresh.ceilings.Range(func(any, any) bool { t.Error("ungrouped Day < 30 built a memo"); return false })
	fresh.ranges.Range(func(any, any) bool { t.Error("ungrouped Day < 30 built a memo"); return false })
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

// TestKeyCeilingRacingEqualityBuilds: eight first calls racing on a fresh
// sample each may count City's per-key rows, whole and inside Day's window,
// for an ungrouped equality; all read one ceiling, the one a lone call reads.
func TestKeyCeilingRacingEqualityBuilds(t *testing.T) {
	tbl := ceilingTable(4*table.ZoneBlockRows, 5)
	preds := []sql.Expr{
		sql.MustParse("SELECT COUNT(*) FROM T WHERE City = 'BOS'").(*sql.Select).Where,
		sql.MustParse("SELECT COUNT(*) FROM T WHERE City = 'BOS' AND Day >= 10 AND Day <= 19").(*sql.Select).Where,
	}
	want := make([]Ceiling, len(preds))
	for i, pred := range preds {
		c, err := (&StoredTable{Data: tbl}).KeyCeiling(context.Background(), "", pred, Config{})
		if err != nil || c.Column != "City" {
			t.Fatalf("lone ceiling %+v, %v", c, err)
		}
		want[i] = c
	}
	st := &StoredTable{Data: tbl}
	got, errs := make([]Ceiling, 8), make([]error, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = st.KeyCeiling(context.Background(), "", preds[i%2], Config{})
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c != want[i%2] || errs[i] != nil {
			t.Errorf("call %d read %+v (%v), want %+v", i, c, errs[i], want[i%2])
		}
	}
}
