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
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/table"
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
// floor, whether grouped by City or not; City's groups without a window are
// not under it, and neither is any masked SUM or COUNT. Device's forty
// groups of ~300 sample rows are under it whatever the filter, so its
// queries are planned exact before the scan (planTooFew).
var countFirstQueries = []string{
	"SELECT Device, AVG(G), MAX(P) FROM E GROUP BY Device",
	"SELECT Device, COUNT(*), SUM(G), MIN(G) FROM E GROUP BY Device",
	"SELECT Device, AVG(G), MIN(P) FROM E WHERE Day >= 30 GROUP BY Device",
	"SELECT City, AVG(G), MAX(P) FROM E GROUP BY City",
	"SELECT AVG(G), PERCENTILE(P, 0.5) FROM E WHERE Day = 44",
	"SELECT SUM(G), COUNT(*) FROM E WHERE Day = 44",
	"SELECT City, AVG(G), MAX(P) FROM E WHERE Day = 44 GROUP BY City",
}

// countFirstGolden is the answerHasher hash of countFirstQueries, in order.
// The first six were recorded from the commit before count-first, which
// moved no answer bit. It was re-recorded when the Device queries came to be
// planned exact: their 280 aggregates went from a too_few_rows reject to an
// accept, and no estimate, interval, technique, exactness or group moved.
// The seventh query was added then. It was re-recorded again when
// stats.Moments became shifted sums: AVG estimates and intervals moved in
// their last bits (relative change under 1e-14), and no verdict, cause,
// technique, exactness or group moved.
const countFirstGolden = 0x7b574268faa022ee

// TestCountFirstDifferential: count-first moves no answer bit on any
// backing, worker count or cache setting, and it did decide: the estimate
// stage of City's one-day query served no bar, where that of City's query
// without a window served one per aggregate.
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
		if window, city := barred[countFirstQueries[6]], barred[countFirstQueries[3]]; window != 0 || city == 0 {
			t.Errorf("%v: bars served: %d on City's one-day groups, %d on City's; want none and some", c, window, city)
		}
	}
}

// TestPlanExactRecord: a planned-exact query's plan stage names the block
// table and its prediction, EXPLAIN heads the exact plan with it, and the
// tracer scores the scan's decoded blocks against it.
func TestPlanExactRecord(t *testing.T) {
	tr := obs.NewTracer(obs.Options{})
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
// rejected the aggregate and the fallback would have answered it.
func TestCountFirstAnswersEmptyFilter(t *testing.T) {
	e := planEngine(t, planConfig{backing: "raw", workers: 2})
	for _, q := range []string{
		"SELECT AVG(G) FROM E WHERE City = 'XX'",
		"SELECT MAX(P) FROM E WHERE City = 'XX'",
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
// cache setting. Without the fallback it served no group at all.
func TestEmptyGroupedAnswerFallsBack(t *testing.T) {
	queries := []string{
		"SELECT City, AVG(G) FROM E WHERE Day = 11 AND G > 110 GROUP BY City",
		"SELECT City, AVG(G) FROM E WHERE Day = 2 AND G > 110 GROUP BY City",
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

// TestTooFewPlanDifferential: a grouped query whose every GROUP BY key holds
// fewer sample rows than the diagnostic's floor is planned exact before any
// sample scan — with or without a Day window — and a query whose key clears
// the floor stays on the sample, even where its filter leaves too few rows.
// The decision, its EXPLAIN and every answer bit are the same on every
// backing, worker count and cache setting; a routed answer is RunExact's, to
// the bit; and queries racing to be first read one ceiling. An engine that
// keeps rejected answers, an error bound and a time budget are not routed.
func TestTooFewPlanDifferential(t *testing.T) {
	queries := []struct {
		sql    string
		routed bool
	}{
		{"SELECT Device, AVG(G), MAX(P) FROM E GROUP BY Device", true},
		{"SELECT Device, COUNT(*), SUM(G) FROM E WHERE Day >= 30 AND Day <= 59 GROUP BY Device", true},
		{"SELECT City, AVG(G), MAX(P) FROM E GROUP BY City", false},
		{"SELECT City, AVG(G) FROM E WHERE Day = 44 GROUP BY City", false},
	}
	sqls := make([]string, len(queries))
	for i, q := range queries {
		sqls[i] = q.sql
	}
	const head = "exact (too few rows: at most %d sample rows per Device group, floor 3200)\n"
	wantHash, wantExplain := make([]uint64, len(queries)), make([]string, len(queries))
	ceiling := 0
	for ci, c := range planMatrix() {
		e := planEngine(t, c)
		if ci == 0 {
			ceiling = deviceCeiling(t, e)
		}
		answers := runPlanQueries(t, e, sqls)
		for i, q := range queries {
			ans := answers[i]
			explain, err := e.Explain(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			if routed := strings.HasPrefix(explain, fmt.Sprintf(head, ceiling)); routed != q.routed {
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
					if got, want := answerHash(ans), answerHash(exact); got != want || len(ans.Groups) != 40 {
						t.Errorf("%q: routed answer of %d groups is not RunExact's", q.sql, len(ans.Groups))
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
		if got := racedCeilings(t, planEngine(t, c)); got != ceiling {
			t.Errorf("%v: queries racing to be first read ceiling %d, want %d", c, got, ceiling)
		}
	}

	// Only a plain request on an engine that replaces rejects is routed.
	e := planEngine(t, planConfig{backing: "raw", workers: 2})
	var recs []*obs.QueryRecord
	e.recorded = func(r *obs.QueryRecord) { recs = append(recs, r) }
	keeps := New(Config{Seed: 47, Workers: 2, BootstrapK: 40, noFallback: true})
	t.Cleanup(func() { keeps.Close() })
	if err := keeps.RegisterTable("E", planTable(planRows)); err != nil {
		t.Fatal(err)
	}
	if err := keeps.BuildSamples("E", planSampleRows); err != nil {
		t.Fatal(err)
	}
	keeps.recorded = e.recorded
	device := queries[0].sql
	if explain, _ := keeps.Explain(device); strings.HasPrefix(explain, "exact") {
		t.Errorf("an engine that keeps rejects planned exact:\n%s", explain)
	}
	for _, run := range []struct {
		e    *Engine
		opts RunOptions
	}{
		{keeps, RunOptions{}},
		{e, RunOptions{ErrorBound: 0.05}},
		{e, RunOptions{TimeBudget: time.Minute}},
	} {
		recs = nil
		if _, err := run.e.RunWithOptions(context.Background(), device, run.opts); err != nil {
			t.Fatal(err)
		}
		if p := recs[0].Stages[1]; p.Stage != obs.StagePlan || p.Reason != "" || p.SampleRows != planSampleRows {
			t.Errorf("noFallback=%v %+v: first plan %+v, want the sample's", run.e.cfg.noFallback, run.opts, p)
		}
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

// deviceCeiling counts the most sample rows any one Device value holds, from
// e's raw sample column.
func deviceCeiling(t *testing.T, e *Engine) int {
	t.Helper()
	s := e.tables["E"].samples[0].Data
	counts := map[string]int{}
	for _, d := range s.Column(s.Schema().Index("Device")).(table.StringCol) {
		counts[d]++
	}
	most := 0
	for _, n := range counts {
		most = max(most, n)
	}
	if len(counts) != 40 || most >= 3200 {
		t.Fatalf("the sample holds %d Device values, at most %d rows each; want 40 under the floor", len(counts), most)
	}
	return most
}

// racedCeilings runs eight routed Device queries at once on a fresh engine,
// each a different window so none replays another's answer, and returns the
// ceiling their plan stages read, failing unless they all read the same.
func racedCeilings(t *testing.T, e *Engine) int {
	t.Helper()
	var mu sync.Mutex
	var ceilings []int
	e.recorded = func(r *obs.QueryRecord) {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range r.Stages {
			if s.Stage == obs.StagePlan {
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
				fmt.Sprintf("SELECT Device, AVG(G) FROM E WHERE Day >= %d GROUP BY Device", i))
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
// its plan stage — the reason, the Device ceiling and the sample's rows, all
// on its span — runs one scan of the full table and nothing of the sample
// path, and leaves the block table's decode ratio unobserved.
func TestTooFewPlanRecord(t *testing.T) {
	tr := obs.NewTracer(obs.Options{})
	e := New(Config{Seed: 47, Obs: tr})
	t.Cleanup(func() { e.Close() })
	if err := e.RegisterTable("E", planTable(planRows)); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildSamples("E", planSampleRows); err != nil {
		t.Fatal(err)
	}
	ceiling := deviceCeiling(t, e)
	ans, err := e.Run(context.Background(), "SELECT Device, AVG(G) FROM E WHERE Day < 45 GROUP BY Device")
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
		t.Errorf("stages %q, want parse plan scan", got)
	}
	if plan == nil || plan.Attrs["mode"] != "exact" || plan.Attrs["reason"] != obs.PlanTooFewRows ||
		plan.Attrs["key_ceiling"] != int64(ceiling) || plan.Attrs["sample_rows"] != int64(planSampleRows) {
		t.Errorf("plan span %+v, want too few rows: ceiling %d on %d sample rows", plan, ceiling, planSampleRows)
	}
	if ans.SampleRows != 0 || ans.Counters.RowsScanned != planRows {
		t.Errorf("answered on %d sample rows after scanning %d, want the full table's %d alone",
			ans.SampleRows, ans.Counters.RowsScanned, planRows)
	}
	if n := tr.Registry().Histogram("aqp_plan_decode_ratio", "", obs.DecodeRatioBuckets).Count(); n != 0 {
		t.Errorf("decode ratio observed %d times, want none", n)
	}
}
