package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/table"
	"repro/internal/workload"
)

// planTable is E(Day, City, Device, G, P) over n rows: Day ascends over 90
// days, so a Day window leaves at most two partial blocks; City takes three
// values and Device forty; G is Gaussian and P Pareto with a tail index near
// 1, whose MAX the diagnostic rejects.
func planTable(n int) *table.Table {
	src := rng.New(5150)
	day := make(table.Int64Col, n)
	city, device := make(table.StringCol, n), make(table.StringCol, n)
	g, p := make(table.Float64Col, n), make(table.Float64Col, n)
	cities := []string{"NYC", "SF", "LA"}
	for i := 0; i < n; i++ {
		day[i] = int64(i) * 90 / int64(n)
		city[i] = cities[src.Intn(len(cities))]
		device[i] = fmt.Sprintf("dev%02d", src.Intn(40))
		g[i] = 60 + 20*src.NormFloat64()
		p[i] = src.Pareto(1, 1.05)
	}
	return table.MustNew(table.Schema{
		{Name: "Day", Type: table.Int64}, {Name: "City", Type: table.String},
		{Name: "Device", Type: table.String}, {Name: "G", Type: table.Float64},
		{Name: "P", Type: table.Float64},
	}, day, city, device, g, p)
}

// planRows and planSampleRows size the table at 48 zone blocks and its one
// sample at 12: a float or string predicate leaves every full-table block
// partial, so the exact plan costs four times the sample scan there. A City
// group of the sample holds ~4,100 rows, over the diagnostic's floor of
// 3,200; a Device group ~300.
const planRows, planSampleRows = 48 * table.ZoneBlockRows, 12 * table.ZoneBlockRows

// planConfig is one cell of the differential matrix.
type planConfig struct {
	backing string // raw, compressed or mmap
	workers int
	cache   bool
	// damaged, in an mmap cell, names a column whose payload in the
	// persisted sample has a byte flipped before the cell's engine opens it.
	damaged string
}

func (c planConfig) String() string {
	return fmt.Sprintf("%s/workers=%d/cache=%v", c.backing, c.workers, c.cache)
}

// planMatrix is every backing × Workers 1/2/7 × cache on/off. The mmap cells
// serve a persisted sample under strict payload checks (planEngine).
func planMatrix() []planConfig {
	var out []planConfig
	for _, backing := range []string{"raw", "compressed", "mmap"} {
		for _, workers := range []int{1, 2, 7} {
			for _, cache := range []bool{false, true} {
				out = append(out, planConfig{backing: backing, workers: workers, cache: cache})
			}
		}
	}
	return out
}

// planEngine builds the engine of one cell over planTable, with its sample.
func planEngine(t *testing.T, c planConfig) *Engine {
	t.Helper()
	cfg := Config{Seed: 47, Workers: c.workers, BootstrapK: 40}
	if c.cache {
		cfg.CacheBytes = 8 << 20
	}
	tbl := planTable(planRows)
	switch c.backing {
	case "compressed":
		cfg.Backing, cfg.SampleBacking = table.BackingCompressed, table.BackingCompressed
	case "mmap":
		path := filepath.Join(t.TempDir(), "e.store")
		if err := table.WriteStore(path, tbl); err != nil {
			t.Fatal(err)
		}
		mapped, closer, err := table.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closer.Close() })
		tbl, cfg.SampleBacking = mapped, table.BackingCompressed
		// A first engine builds the sample and saves it beside the store;
		// the cell's engine serves it from the file's mapping, each column
		// checked on its first read. Strict checks make a decode of a column
		// nothing checked panic: every read path must check first.
		first := New(cfg)
		if err := first.RegisterTable("E", tbl); err != nil {
			t.Fatal(err)
		}
		if err := first.BuildSamples("E", planSampleRows); err != nil {
			t.Fatal(err)
		}
		first.Close()
		if c.damaged != "" {
			flipPayload(t, sampleFiles(t, filepath.Dir(path), "e.store")[0], c.damaged)
		}
		table.StrictChecks(true)
		t.Cleanup(func() { table.StrictChecks(false) })
	}
	e := New(cfg)
	t.Cleanup(func() { e.Close() })
	if err := e.RegisterTable("E", tbl); err != nil {
		t.Fatal(err)
	}
	files, err := e.BuildSamplesReport("E", planSampleRows)
	if err != nil {
		t.Fatal(err)
	}
	if c.backing == "mmap" && (len(files) != 1 || !files[0].Opened) {
		t.Fatalf("sample files %+v, want the one the first engine saved, opened", files)
	}
	return e
}

// runPlanQueries answers the queries on e, one by one.
func runPlanQueries(t *testing.T, e *Engine, queries []string) []*Answer {
	t.Helper()
	out := make([]*Answer, len(queries))
	for i, q := range queries {
		ans, err := e.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		out[i] = ans
	}
	return out
}

// answerHash is one answer's full answerHasher hash: every estimate and
// interval bit, technique, verdict and rejection cause.
func answerHash(ans *Answer) uint64 {
	h := newAnswerHasher()
	h.add(ans)
	return h.sum().full
}

// TestPlanExactDifferential: an ungrouped query whose every aggregate is a
// MIN or MAX of a bare column is planned exact when the block table predicts
// no more decode than the sample scan — with no predicate, or a Day window —
// and stays on the sample under a float or string predicate, or beside an
// AVG or a COUNT. The decision, its EXPLAIN and every answer bit are the
// same on every backing, worker count and cache setting, and a routed
// answer is RunExact's, accepted, to the bit.
func TestPlanExactDifferential(t *testing.T) {
	queries := []struct {
		sql    string
		routed bool
	}{
		{"SELECT MIN(G) FROM E", true},
		{"SELECT MIN(G), MAX(P) FROM E", true},
		{"SELECT MAX(P), MIN(Day) FROM E WHERE Day >= 10 AND Day <= 19", true},
		{"SELECT MAX(P) FROM E WHERE Day = 44", true},
		{"SELECT MAX(P) FROM E WHERE P > 0", false},
		{"SELECT MIN(G) FROM E WHERE City = 'NYC'", false},
		{"SELECT MIN(G), AVG(G) FROM E", false},
		{"SELECT MAX(P), COUNT(*) FROM E", false},
		{"SELECT City, MAX(P) FROM E GROUP BY City", false},
	}
	sqls := make([]string, len(queries))
	for i, q := range queries {
		sqls[i] = q.sql
	}
	wantHash, wantExplain := make([]uint64, len(queries)), make([]string, len(queries))
	for ci, c := range planMatrix() {
		e := planEngine(t, c)
		answers := runPlanQueries(t, e, sqls)
		for i, q := range queries {
			ans := answers[i]
			explain, err := e.Explain(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			if routed := strings.HasPrefix(explain, "exact (block table: "); routed != q.routed {
				t.Errorf("%v %q: planned exact = %v, want %v:\n%s", c, q.sql, routed, q.routed, explain)
			}
			if onSample := ans.SampleRows > 0; onSample == q.routed {
				t.Errorf("%v %q: answered on %d sample rows, planned exact = %v", c, q.sql, ans.SampleRows, q.routed)
			}
			if ci == 0 {
				wantHash[i], wantExplain[i] = answerHash(ans), explain
				if q.routed {
					exact, err := e.RunExact(context.Background(), q.sql)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := answerHash(ans), answerHash(exact); got != want {
						t.Errorf("%q: routed answer %+v is not RunExact's %+v", q.sql, ans.Groups, exact.Groups)
					}
					for _, a := range ans.Groups[0].Aggs {
						if !a.Exact || !a.DiagnosticOK || a.Technique != "exact" || math.IsNaN(a.Estimate) {
							t.Errorf("%q: routed aggregate %+v, want an accepted exact answer", q.sql, a)
						}
					}
				}
				continue
			}
			if got := answerHash(ans); got != wantHash[i] {
				t.Errorf("%v %q: answer hash %#x, want %#x", c, q.sql, got, wantHash[i])
			}
			if explain != wantExplain[i] {
				t.Errorf("%v %q: EXPLAIN\n%s\nwant\n%s", c, q.sql, explain, wantExplain[i])
			}
		}
	}
}

// countFirstQueries are the grouped and ungrouped queries count-first
// decides: a one-day window leaves ~140 sample rows, under the diagnostic's
// floor; City's groups without a filter are not under it, and neither is any
// masked SUM or COUNT. Device's forty groups of ~300 sample rows are under it
// whatever the filter, and so are City's under a one-day window, so those
// queries are planned exact before the scan (planTooFew). G > 110 leaves
// City's groups under the floor too, but G has too many distinct values for
// the key ceiling to read its window: count-first decides that query.
var countFirstQueries = []string{
	"SELECT Device, AVG(G), MAX(P) FROM E GROUP BY Device",
	"SELECT Device, COUNT(*), SUM(G), MIN(G) FROM E GROUP BY Device",
	"SELECT Device, AVG(G), MIN(P) FROM E WHERE Day >= 30 GROUP BY Device",
	"SELECT City, AVG(G), MAX(P) FROM E GROUP BY City",
	"SELECT AVG(G), PERCENTILE(P, 0.5) FROM E WHERE Day = 44",
	"SELECT SUM(G), COUNT(*) FROM E WHERE Day = 44",
	"SELECT City, AVG(G), MAX(P) FROM E WHERE Day = 44 GROUP BY City",
	"SELECT City, AVG(G), MAX(P) FROM E WHERE G > 110 GROUP BY City",
}

// countFirstGolden is the answerHasher hash of countFirstQueries, in order.
// The first six were recorded from the commit before count-first, which
// moved no answer bit. It was re-recorded when the Device queries came to be
// planned exact: their 280 aggregates went from a too_few_rows reject to an
// accept, and no estimate, interval, technique, exactness or group moved.
// The seventh query was added then. It was re-recorded again when
// stats.Moments became shifted sums: AVG estimates and intervals moved in
// their last bits (relative change under 1e-14), and no verdict, cause,
// technique, exactness or group moved. It was re-recorded when the key
// ceiling came to read the predicate's window: the seventh query is planned
// exact, so its six aggregates went from a too_few_rows reject to an accept,
// and no estimate, interval bit, technique, exactness or group moved. The
// eighth query was added then.
const countFirstGolden = 0xa53deadd6ded30e8

// TestCountFirstDifferential: count-first moves no answer bit on any
// backing, worker count or cache setting, and it did decide: the estimate
// stage of City's query under G > 110 served no bar, where that of City's
// query without a filter served one per aggregate.
func TestCountFirstDifferential(t *testing.T) {
	for _, c := range planMatrix() {
		e := planEngine(t, c)
		var recs []*obs.QueryRecord
		e.recorded = func(r *obs.QueryRecord) { recs = append(recs, r) }
		h := newAnswerHasher()
		for _, ans := range runPlanQueries(t, e, countFirstQueries) {
			h.add(ans)
		}
		if got := h.sum().full; got != countFirstGolden {
			t.Errorf("%v: answer hash %#x, want %#x", c, got, uint64(countFirstGolden))
		}
		barred := map[string]int{}
		for _, r := range recs {
			for _, s := range r.Stages {
				if s.Stage == obs.StageEstimate {
					barred[r.SQL] = s.ClosedForm + s.Bootstrapped
				}
			}
		}
		filtered, city := barred[countFirstQueries[7]], barred[countFirstQueries[3]]
		if _, ran := barred[countFirstQueries[7]]; !ran || filtered != 0 || city == 0 {
			t.Errorf("%v: bars served: %d on City's G > 110 groups (estimated: %v), %d on City's; want none and some",
				c, filtered, ran, city)
		}
	}
}

// TestPlanExactRecord: a planned-exact query's plan stage names the block
// table and its prediction, EXPLAIN heads the exact plan with it, and the
// tracer scores the scan's decoded blocks against it.
func TestPlanExactRecord(t *testing.T) {
	tr := obs.NewTracer(obs.Config{})
	e := New(Config{Seed: 47, Obs: tr, Backing: table.BackingCompressed})
	if err := e.RegisterTable("E", planTable(planRows)); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildSamples("E", planSampleRows); err != nil {
		t.Fatal(err)
	}
	// Days 10 to 19 run from mid-block to mid-block: two partial blocks of
	// Day and P, four column blocks.
	const q = "SELECT MAX(P) FROM E WHERE Day >= 10 AND Day <= 19"
	explain, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(explain, "exact (block table: 4 blocks)\n") {
		t.Fatalf("EXPLAIN:\n%s", explain)
	}
	ans, err := e.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := tr.Last()
	var plan *obs.SpanSnapshot
	for i := range snap.Spans {
		if snap.Spans[i].Stage == obs.StagePlan {
			plan = &snap.Spans[i]
		}
	}
	if plan == nil || plan.Attrs["reason"] != obs.PlanBlockTable || plan.Attrs["predicted_blocks"] != int64(4) {
		t.Fatalf("plan span %+v, want the block table's reason and 4 predicted blocks", plan)
	}
	ratio := tr.Registry().Histogram("aqp_plan_decode_ratio", "", obs.DecodeRatioBuckets)
	if ratio.Count() != 1 || ratio.Sum() != float64(ans.Counters.BlocksDecoded)/4 {
		t.Errorf("decode ratio: %d observations summing to %v; the scan decoded %d of 4 predicted blocks",
			ratio.Count(), ratio.Sum(), ans.Counters.BlocksDecoded)
	}
	if ans.Counters.BlocksDecoded == 0 || ans.Counters.BlocksDecoded > 4 {
		t.Errorf("the scan decoded %d blocks, want 1 to 4", ans.Counters.BlocksDecoded)
	}
}

// TestCountFirstAnswersEmptyFilter: a closed-form aggregate whose filter
// leaves no sample row is rejected too_few_rows and answered exactly, as a
// MAX over the same filter always was. Before count-first the closed-form
// fold's "empty sample" failed the query, though the diagnostic had already
// rejected the aggregate and the fallback would have answered it. The filter
// excludes every City with "!=", which the key ceiling cannot read, so the
// queries run on the sample; "City = 'XX'" is planned exact before it
// (TestTooFewPlanDifferential).
func TestCountFirstAnswersEmptyFilter(t *testing.T) {
	e := planEngine(t, planConfig{backing: "raw", workers: 2})
	const noCity = "City != 'NYC' AND City != 'SF' AND City != 'LA'"
	for _, q := range []string{
		"SELECT AVG(G) FROM E WHERE " + noCity,
		"SELECT MAX(P) FROM E WHERE " + noCity,
	} {
		ans, err := e.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		a := ans.Groups[0].Aggs[0]
		if a.DiagnosticCause != "too_few_rows" || !a.Exact || !math.IsNaN(a.Estimate) || ans.SampleRows != planSampleRows {
			t.Errorf("%q: %+v on %d sample rows, want the exact NaN after a too_few_rows reject on the sample", q, a, ans.SampleRows)
		}
	}
}

// TestEmptyGroupedAnswerFallsBack: a grouped query whose filter leaves no
// sample row has no group to diagnose, yet the table has groups. The answer
// is RunExact's, every aggregate exact after a too_few_rows reject — what
// the ungrouped form over no row gets — on every backing, worker count and
// cache setting. Without the fallback it served no group at all. The filters
// are on G and P, whose many distinct values leave the key ceiling no window
// to read, so the queries run on the sample.
func TestEmptyGroupedAnswerFallsBack(t *testing.T) {
	queries := []string{
		"SELECT City, AVG(G) FROM E WHERE G < 5 AND P > 30 GROUP BY City",
		"SELECT City, AVG(G) FROM E WHERE G < 0 AND P > 30 GROUP BY City",
	}
	for _, c := range planMatrix() {
		e := planEngine(t, c)
		for _, q := range queries {
			ans, err := e.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("%v %q: %v", c, q, err)
			}
			exact, err := e.RunExact(context.Background(), q)
			if err != nil {
				t.Fatalf("%v %q: %v", c, q, err)
			}
			if len(exact.Groups) == 0 || ans.SampleRows != planSampleRows {
				t.Fatalf("%v %q: RunExact has %d groups, answer on %d sample rows; the test needs groups only the table has",
					c, q, len(exact.Groups), ans.SampleRows)
			}
			if len(ans.Groups) != len(exact.Groups) {
				t.Fatalf("%v %q: %d groups, RunExact %d", c, q, len(ans.Groups), len(exact.Groups))
			}
			for gi, g := range ans.Groups {
				a, x := g.Aggs[0], exact.Groups[gi].Aggs[0]
				if g.Key != exact.Groups[gi].Key || math.Float64bits(a.Estimate) != math.Float64bits(x.Estimate) {
					t.Errorf("%v %q: group %q = %v, RunExact's %q = %v", c, q, g.Key, a.Estimate, exact.Groups[gi].Key, x.Estimate)
				}
				if !a.Exact || a.DiagnosticOK || a.DiagnosticCause != "too_few_rows" {
					t.Errorf("%v %q: group %q: %+v, want exact after a too_few_rows reject", c, q, g.Key, a)
				}
			}
		}
	}
}

// TestTooFewPlanDifferential: a query no group of whose sample can hold the
// diagnostic's floor of rows under its predicate is planned exact before any
// sample scan. A grouped query's ceiling is a key's rows in the whole sample
// or, tighter, in the predicate's window on Day or under its equality on a
// string column: Device is routed with or without a window, City under a
// one-day or nine-day window, also beside a G conjunct the ceiling cannot
// read, and under one Device. City stays on the sample without a filter,
// under a window wide enough for a group to clear the floor, and under a G
// filter alone, since G has too many distinct values for a window count. An
// ungrouped query's ceiling is the rows of its equality's values, in its
// window when it has one: AVG, STDEV, MIN and a UDF are routed under one
// Device (about 300 sample rows), two Devices, a City the table lacks, or a
// City inside a nine-day window, and stay on the sample under a whole City,
// over the floor. An ungrouped SUM or COUNT, diagnosed over every sample row,
// stays on the sample under one Device, alone or beside an AVG. The
// decision, its EXPLAIN — which names the ceiling counted from the sample,
// and its restriction — and every answer bit are the same on every backing,
// worker count and cache setting; a routed answer is RunExact's, to the bit
// and in its group set; and queries racing to be first read one ceiling. An
// engine that keeps rejected answers is not routed.
func TestTooFewPlanDifferential(t *testing.T) {
	every := func(int64, string, string) bool { return true }
	days := func(lo, hi int64) func(int64, string, string) bool {
		return func(day int64, _, _ string) bool { return day >= lo && day <= hi }
	}
	none := func(int64, string, string) bool { return false }
	dev07 := func(_ int64, _, dev string) bool { return dev == "dev07" }
	queries := []struct {
		sql    string
		routed bool
		// When routed, EXPLAIN names the GROUP BY column, the restriction
		// that gave the ceiling, and the ceiling: the most rows one value of
		// by ("": all of them) holds among the raw sample's rows keep admits.
		group, restriction, by string
		keep                   func(day int64, city, device string) bool
	}{
		{"SELECT Device, AVG(G), MAX(P) FROM E GROUP BY Device", true, "Device", "", "Device", every},
		{"SELECT Device, COUNT(*), SUM(G) FROM E WHERE Day >= 30 AND Day <= 59 GROUP BY Device", true,
			"Device", "Day in [30, 59]", "Device", days(30, 59)},
		{"SELECT City, AVG(G), MAX(P) FROM E GROUP BY City", false, "", "", "", nil},
		{"SELECT City, AVG(G) FROM E WHERE Day = 44 GROUP BY City", true, "City", "Day in [44, 44]", "City", days(44, 44)},
		{"SELECT City, SUM(G), MAX(P) FROM E WHERE Day >= 30 AND Day <= 38 GROUP BY City", true,
			"City", "Day in [30, 38]", "City", days(30, 38)},
		{"SELECT City, AVG(G) FROM E WHERE Day >= 30 AND Day <= 38 AND G > 110 GROUP BY City", true,
			"City", "Day in [30, 38]", "City", days(30, 38)},
		{"SELECT City, AVG(G) FROM E WHERE Day >= 10 GROUP BY City", false, "", "", "", nil},
		{"SELECT City, AVG(G), MAX(P) FROM E WHERE G > 110 GROUP BY City", false, "", "", "", nil},
		{"SELECT City, SUM(G), COUNT(*) FROM E WHERE Device = 'dev07' GROUP BY City", true,
			"City", "Device = 'dev07'", "", dev07},
		{"SELECT AVG(G) FROM E WHERE Device = 'dev07'", true, "", "Device = 'dev07'", "", dev07},
		{"SELECT STDEV(G), MIN(G) FROM E WHERE Device = 'dev07'", true, "", "Device = 'dev07'", "", dev07},
		{"SELECT second_moment(G), MIN(P) FROM E WHERE Device = 'dev03' OR 'dev07' = Device", true,
			"", "Device in ('dev03', 'dev07')", "", func(_ int64, _, dev string) bool { return dev == "dev03" || dev == "dev07" }},
		{"SELECT AVG(G), second_moment(G) FROM E WHERE Device = 'dev07' AND Day >= 30 AND Day <= 59", true,
			"", "Device = 'dev07' and Day in [30, 59]", "", func(day int64, _, dev string) bool { return dev == "dev07" && day >= 30 && day <= 59 }},
		{"SELECT AVG(G) FROM E WHERE City = 'XX'", true, "", "City = 'XX'", "", none},
		{"SELECT MIN(G), STDEV(G) FROM E WHERE City = 'XX' AND Day < 45", true, "", "City = 'XX'", "", none},
		{"SELECT STDEV(G), MIN(G) FROM E WHERE City = 'NYC' AND Day >= 30 AND Day <= 38", true,
			"", "City = 'NYC' and Day in [30, 38]", "", func(day int64, city, _ string) bool { return city == "NYC" && day >= 30 && day <= 38 }},
		{"SELECT AVG(G), STDEV(G) FROM E WHERE City = 'NYC'", false, "", "", "", nil},
		{"SELECT SUM(G), COUNT(*) FROM E WHERE Device = 'dev07'", false, "", "", "", nil},
		{"SELECT AVG(G), SUM(G) FROM E WHERE Device = 'dev07'", false, "", "", "", nil},
	}
	udf := workload.UDFByName("second_moment")
	sqls := make([]string, len(queries))
	for i, q := range queries {
		sqls[i] = q.sql
	}
	wantHash, wantExplain := make([]uint64, len(queries)), make([]string, len(queries))
	heads := make([]string, len(queries))
	ceiling := 0
	for ci, c := range planMatrix() {
		e := planEngine(t, c)
		e.RegisterUDF(udf.Name, udf.Fn)
		if ci == 0 {
			deviceCeiling(t, e)
			for i, q := range queries {
				var per, with string
				if q.group != "" {
					per = " per " + q.group + " group"
				}
				if q.restriction != "" {
					with = " with " + q.restriction
				}
				if q.routed {
					heads[i] = fmt.Sprintf("exact (too few rows: at most %d sample rows%s%s, floor 3200)\n",
						sampleMost(t, e, q.by, q.keep), per, with)
				}
			}
			ceiling = sampleCeiling(t, e, "City", 30, 38)
		}
		answers := runPlanQueries(t, e, sqls)
		for i, q := range queries {
			ans := answers[i]
			explain, err := e.Explain(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			if routed := strings.HasPrefix(explain, "exact (too few rows:"); routed != q.routed {
				t.Errorf("%v %q: planned exact = %v, want %v:\n%s", c, q.sql, routed, q.routed, explain)
			}
			if q.routed && !strings.HasPrefix(explain, heads[i]) {
				t.Errorf("%v %q: EXPLAIN\n%s\nwant it headed\n%s", c, q.sql, explain, heads[i])
			}
			if onSample := ans.SampleRows > 0; onSample == q.routed {
				t.Errorf("%v %q: answered on %d sample rows, planned exact = %v", c, q.sql, ans.SampleRows, q.routed)
			}
			if q.routed {
				exact, err := e.RunExact(context.Background(), q.sql)
				if err != nil {
					t.Fatal(err)
				}
				if answerHash(ans) != answerHash(exact) || len(ans.Groups) != len(exact.Groups) {
					t.Errorf("%v %q: routed answer of %d groups is not RunExact's %d", c, q.sql, len(ans.Groups), len(exact.Groups))
				}
			}
			if ci == 0 {
				wantHash[i], wantExplain[i] = answerHash(ans), explain
				continue
			}
			if got := answerHash(ans); got != wantHash[i] {
				t.Errorf("%v %q: answer hash %#x, want %#x", c, q.sql, got, wantHash[i])
			}
			if explain != wantExplain[i] {
				t.Errorf("%v %q: EXPLAIN\n%s\nwant\n%s", c, q.sql, explain, wantExplain[i])
			}
		}
		if got := racedCeilings(t, planEngine(t, c)); got != ceiling {
			t.Errorf("%v: queries racing to be first read ceiling %d, want %d", c, got, ceiling)
		}
	}

	// An engine that keeps rejected answers is not routed.
	keeps := New(Config{Seed: 47, Workers: 2, BootstrapK: 40, noFallback: true})
	t.Cleanup(func() { keeps.Close() })
	if err := keeps.RegisterTable("E", planTable(planRows)); err != nil {
		t.Fatal(err)
	}
	if err := keeps.BuildSamples("E", planSampleRows); err != nil {
		t.Fatal(err)
	}
	var recs []*obs.QueryRecord
	keeps.recorded = func(r *obs.QueryRecord) { recs = append(recs, r) }
	device := queries[0].sql
	if explain, _ := keeps.Explain(device); strings.HasPrefix(explain, "exact") {
		t.Errorf("an engine that keeps rejects planned exact:\n%s", explain)
	}
	if _, err := keeps.Run(context.Background(), device); err != nil {
		t.Fatal(err)
	}
	if p := recs[0].Stages[1]; p.Stage != obs.StagePlan || p.Reason != "" || p.SampleRows != planSampleRows {
		t.Errorf("an engine that keeps rejects: first plan %+v, want the sample's", p)
	}
}

// TestTooFewPlanOnDamagedSample: on a persisted sample whose GROUP BY column
// payload is damaged, whichever of EXPLAIN and Run reads the column first
// refuses it and rebuilds the sample, and both then plan the grouped query as
// an engine with a sound file does: exact, too few rows.
func TestTooFewPlanOnDamagedSample(t *testing.T) {
	const device = "SELECT Device, AVG(G), MAX(P) FROM E GROUP BY Device"
	sound := planEngine(t, planConfig{backing: "mmap", workers: 2})
	wantExplain, err := sound.Explain(device)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(wantExplain, "exact (too few rows:") {
		t.Fatalf("a sound file plans\n%s", wantExplain)
	}
	want, err := sound.Run(context.Background(), device)
	if err != nil {
		t.Fatal(err)
	}
	for _, explainFirst := range []bool{true, false} {
		e := planEngine(t, planConfig{backing: "mmap", workers: 2, damaged: "Device"})
		var explain string
		var ans *Answer
		steps := []func() error{
			func() (err error) { explain, err = e.Explain(device); return err },
			func() (err error) { ans, err = e.Run(context.Background(), device); return err },
		}
		if !explainFirst {
			slices.Reverse(steps)
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("explain first = %v: %v", explainFirst, err)
			}
		}
		if explain != wantExplain {
			t.Errorf("explain first = %v: EXPLAIN\n%s\nwant\n%s", explainFirst, explain, wantExplain)
		}
		if ans.SampleRows != 0 || answerHash(ans) != answerHash(want) {
			t.Errorf("explain first = %v: answered on %d sample rows, hash %#x; want exact, %#x",
				explainFirst, ans.SampleRows, answerHash(ans), answerHash(want))
		}
	}
}

// deviceCeiling checks that e's raw sample holds forty Device values, each
// on fewer rows than the diagnostic's floor.
func deviceCeiling(t *testing.T, e *Engine) {
	t.Helper()
	s := e.tables["E"].samples[0].Data
	counts := map[string]int{}
	for _, d := range s.Column(s.Schema().Index("Device")).(table.StringCol) {
		counts[d]++
	}
	if most := sampleCeiling(t, e, "Device", 1, 0); len(counts) != 40 || most >= 3200 {
		t.Fatalf("the sample holds %d Device values, at most %d rows each; want 40 under the floor", len(counts), most)
	}
}

// sampleCeiling counts the most rows of e's raw sample that one value of
// the string column key holds with Day in [lo, hi], or anywhere when lo > hi.
func sampleCeiling(t *testing.T, e *Engine, key string, lo, hi int64) int {
	t.Helper()
	return sampleMost(t, e, key, func(day int64, _, _ string) bool { return lo > hi || day >= lo && day <= hi })
}

// sampleMost counts the most rows of e's raw sample that one value of the
// string column by holds among the rows keep admits; by "" counts them all.
func sampleMost(t *testing.T, e *Engine, by string, keep func(day int64, city, device string) bool) int {
	t.Helper()
	s := e.tables["E"].samples[0].Data
	column := func(name string) table.Column { return s.Column(s.Schema().Index(name)) }
	days := column("Day").(table.Int64Col)
	cities, devices := column("City").(table.StringCol), column("Device").(table.StringCol)
	counts := map[string]int{}
	for i, day := range days {
		if keep(day, cities[i], devices[i]) {
			key := ""
			if by != "" {
				key = column(by).(table.StringCol)[i]
			}
			counts[key]++
		}
	}
	most := 0
	for _, n := range counts {
		most = max(most, n)
	}
	return most
}

// racedCeilings runs eight routed City queries under one nine-day window at
// once on a fresh engine, each a different aggregate so none replays
// another's answer, and returns the ceiling their plan stages read, failing
// unless they all read the same. Each of them may build the window's counts.
func racedCeilings(t *testing.T, e *Engine) int {
	t.Helper()
	var mu sync.Mutex
	var ceilings []int
	e.recorded = func(r *obs.QueryRecord) {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range r.Stages {
			if s.Stage == obs.StagePlan && s.CeilingColumn == "Day" {
				ceilings = append(ceilings, s.KeyCeiling)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.Run(context.Background(),
				fmt.Sprintf("SELECT City, AVG(G + %d) FROM E WHERE Day >= 30 AND Day <= 38 GROUP BY City", i))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(ceilings) != len(errs) || slices.Min(ceilings) != slices.Max(ceilings) {
		t.Fatalf("racing queries read ceilings %v, want %d equal ones", ceilings, len(errs))
	}
	return ceilings[0]
}

// TestFallbackAddsGroupsTheSampleMissed: a group the sample has no row of is
// under the diagnostic's floor, so the exact fallback adds it — exact,
// rejected too_few_rows, in key order — and the answer has RunExact's groups
// and values, as the routed answer of a query no group of the sample can be
// diagnosed for does. T(k, v) holds 60,000 rows: half on key "a", the rest
// over nineteen other keys, and one row on key "zz" that the 12,000-row
// sample misses.
func TestFallbackAddsGroupsTheSampleMissed(t *testing.T) {
	const n = 60000
	build := func(big bool) *Engine {
		src := rng.New(8)
		k, v := make(table.StringCol, n), make(table.Float64Col, n)
		for i := range k {
			k[i] = fmt.Sprintf("k%02d", 1+src.Intn(19))
			if big && src.Intn(2) == 0 || !big && src.Intn(20) == 0 {
				k[i] = "a"
			}
			v[i] = 60 + 20*src.NormFloat64()
		}
		k[n/3] = "zz"
		e := New(Config{Seed: 3, Workers: 2})
		t.Cleanup(func() { e.Close() })
		if err := e.RegisterTable("T", table.MustNew(table.Schema{
			{Name: "k", Type: table.String}, {Name: "v", Type: table.Float64},
		}, k, v)); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildSamples("T", 12000); err != nil {
			t.Fatal(err)
		}
		if slices.Contains(e.tables["T"].samples[0].Data.Column(0).(table.StringCol), "zz") {
			t.Fatal("the sample holds the one row of key zz; the test needs it missed")
		}
		return e
	}
	const q = "SELECT k, AVG(v) FROM T GROUP BY k"
	for _, big := range []bool{true, false} {
		e := build(big)
		ans, err := e.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := e.RunExact(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if routed := ans.SampleRows == 0; routed == big {
			t.Fatalf("key a on half the rows = %v, yet planned exact = %v", big, routed)
		}
		if len(ans.Groups) != 21 || len(exact.Groups) != 21 {
			t.Fatalf("big=%v: %d groups, RunExact %d; want 21", big, len(ans.Groups), len(exact.Groups))
		}
		for gi, g := range ans.Groups {
			a, x := g.Aggs[0], exact.Groups[gi].Aggs[0]
			if g.Key != exact.Groups[gi].Key {
				t.Fatalf("big=%v: group %d is %q, RunExact's %q", big, gi, g.Key, exact.Groups[gi].Key)
			}
			if a.Exact && math.Float64bits(a.Estimate) != math.Float64bits(x.Estimate) {
				t.Errorf("big=%v: group %q: %v, RunExact %v", big, g.Key, a.Estimate, x.Estimate)
			}
		}
		zz := ans.Groups[20].Aggs[0]
		if big && (zz.DiagnosticOK || zz.DiagnosticCause != "too_few_rows" || !zz.Exact) {
			t.Errorf("the missed group: %+v, want exact after a too_few_rows reject", zz)
		}
	}
}

// TestTooFewPlanRecord: a query planned exact for too few rows records why on
// its plan stage — the reason, the ceiling, the column whose restriction gave
// it and the sample's rows, all on its span — runs one scan of the full table
// and nothing of the sample path, and leaves the block table's decode ratio
// unobserved: Device's ceiling under a Day window, and an ungrouped STDEV's
// under an equality on one Device.
func TestTooFewPlanRecord(t *testing.T) {
	tr := obs.NewTracer(obs.Config{})
	e := New(Config{Seed: 47, Obs: tr})
	t.Cleanup(func() { e.Close() })
	if err := e.RegisterTable("E", planTable(planRows)); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildSamples("E", planSampleRows); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		sql, column string
		ceiling     int
	}{
		{"SELECT Device, AVG(G) FROM E WHERE Day < 45 GROUP BY Device", "Day", sampleCeiling(t, e, "Device", 0, 44)},
		{"SELECT STDEV(G) FROM E WHERE Device = 'dev07'", "Device",
			sampleMost(t, e, "", func(_ int64, _, dev string) bool { return dev == "dev07" })},
	} {
		ans, err := e.Run(context.Background(), q.sql)
		if err != nil {
			t.Fatal(err)
		}
		snap, _ := tr.Last()
		var stages []string
		var plan *obs.SpanSnapshot
		for i, s := range snap.Spans {
			stages = append(stages, s.Stage)
			if s.Stage == obs.StagePlan {
				plan = &snap.Spans[i]
			}
		}
		if got := strings.Join(stages, " "); got != "parse plan scan" {
			t.Errorf("%q: stages %q, want parse plan scan", q.sql, got)
		}
		if plan == nil || plan.Attrs["mode"] != "exact" || plan.Attrs["reason"] != obs.PlanTooFewRows ||
			plan.Attrs["key_ceiling"] != int64(q.ceiling) || plan.Attrs["ceiling_column"] != q.column ||
			plan.Attrs["sample_rows"] != int64(planSampleRows) {
			t.Errorf("%q: plan span %+v, want too few rows: ceiling %d under %s on %d sample rows",
				q.sql, plan, q.ceiling, q.column, planSampleRows)
		}
		if ans.SampleRows != 0 || ans.Counters.RowsScanned != planRows {
			t.Errorf("%q: answered on %d sample rows after scanning %d, want the full table's %d alone",
				q.sql, ans.SampleRows, ans.Counters.RowsScanned, planRows)
		}
	}
	if n := tr.Registry().Histogram("aqp_plan_decode_ratio", "", obs.DecodeRatioBuckets).Count(); n != 0 {
		t.Errorf("decode ratio observed %d times, want none", n)
	}
}

// TestPlanStageCoversRouting: a routed query's plan stage starts where its
// parse stage ends, so the routing — here the first count of the sample's
// ceiling, which each query builds on a fresh engine — is plan time, not
// time between stages: the gap from parse's end to the plan's start is
// shorter than the plan stage that holds the count.
func TestPlanStageCoversRouting(t *testing.T) {
	for _, q := range []string{
		"SELECT Device, AVG(G) FROM E WHERE Day < 45 GROUP BY Device",
		"SELECT STDEV(G) FROM E WHERE Device = 'dev07' AND Day < 45",
	} {
		e := planEngine(t, planConfig{backing: "raw", workers: 2})
		var rec *obs.QueryRecord
		e.recorded = func(r *obs.QueryRecord) { rec = r }
		if _, err := e.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		parse, plan := rec.Stages[0], rec.Stages[1]
		if parse.Stage != obs.StageParse || plan.Stage != obs.StagePlan || plan.Reason != obs.PlanTooFewRows {
			t.Fatalf("%q: stages %+v, want parse then a too-few-rows plan", q, rec.Stages)
		}
		if gap := plan.StartMs - (parse.StartMs + parse.Ms); gap >= plan.Ms {
			t.Errorf("%q: plan stage starts %.4f ms after parse ends and lasts %.4f ms; want it to start where parse ends",
				q, gap, plan.Ms)
		}
	}
}

// TestAggregateRoutes: each query moves aqp_aggregates_total on exactly its
// route, by its aggregates times its groups: City's accepted AVG on the
// sample, City under G > 110 rejected too_few_rows and re-answered exactly,
// a MIN and MAX planned exact from the block table (ungrouped, as that route
// is), City under a one-day window and an ungrouped AVG and STDEV under one
// Device planned exact for too few rows, and Device on request. A replay
// moves no route.
func TestAggregateRoutes(t *testing.T) {
	tr := obs.NewTracer(obs.Config{})
	e := New(Config{Seed: 47, Workers: 2, Obs: tr, CacheBytes: 8 << 20})
	t.Cleanup(func() { e.Close() })
	if err := e.RegisterTable("E", planTable(planRows)); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildSamples("E", planSampleRows); err != nil {
		t.Fatal(err)
	}
	routes := []string{"sample", "fallback", "block_table", "too_few_rows", "exact"}
	counts := func() []int64 {
		out := make([]int64, len(routes))
		for i, r := range routes {
			out[i] = tr.Registry().Counter("aqp_aggregates_total", "", "route", r).Value()
		}
		return out
	}
	for _, q := range []struct {
		route, sql   string
		exact        bool
		aggs, groups int
	}{
		{"sample", "SELECT City, AVG(G) FROM E GROUP BY City", false, 1, 3},
		{"fallback", "SELECT City, AVG(G), MAX(P) FROM E WHERE G > 110 GROUP BY City", false, 2, 3},
		{"block_table", "SELECT MIN(G), MAX(P) FROM E", false, 2, 1},
		{"too_few_rows", "SELECT City, AVG(G), MAX(P) FROM E WHERE Day = 44 GROUP BY City", false, 2, 3},
		{"too_few_rows", "SELECT AVG(G), STDEV(G) FROM E WHERE Device = 'dev07'", false, 2, 1},
		{"exact", "SELECT Device, AVG(G) FROM E GROUP BY Device", true, 1, 40},
		{"", "SELECT City, AVG(G) FROM E GROUP BY City", false, 1, 3}, // a replay
	} {
		before := counts()
		ans, err := e.RunWithOptions(context.Background(), q.sql, RunOptions{Exact: q.exact})
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Groups) != q.groups || len(ans.Groups[0].Aggs) != q.aggs {
			t.Fatalf("%q: %d groups of %d aggregates, want %d of %d", q.sql, len(ans.Groups), len(ans.Groups[0].Aggs), q.groups, q.aggs)
		}
		if q.route == "sample" && ans.FellBack() {
			t.Fatalf("%q fell back; the test needs every aggregate accepted", q.sql)
		}
		after := counts()
		for i, r := range routes {
			want := int64(0)
			if r == q.route {
				want = int64(q.aggs * q.groups)
			}
			if got := after[i] - before[i]; got != want {
				t.Errorf("%q: route %s moved by %d, want %d", q.sql, r, got, want)
			}
		}
	}
}
