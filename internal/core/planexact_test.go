package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

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
}

func (c planConfig) String() string {
	return fmt.Sprintf("%s/workers=%d/cache=%v", c.backing, c.workers, c.cache)
}

// planMatrix is every backing × Workers 1/2/7 × cache on/off.
func planMatrix() []planConfig {
	var out []planConfig
	for _, backing := range []string{"raw", "compressed", "mmap"} {
		for _, workers := range []int{1, 2, 7} {
			for _, cache := range []bool{false, true} {
				out = append(out, planConfig{backing, workers, cache})
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
	}
	e := New(cfg)
	t.Cleanup(func() { e.Close() })
	if err := e.RegisterTable("E", tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildSamples("E", planSampleRows); err != nil {
		t.Fatal(err)
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
// decides: Device's forty groups of ~300 sample rows are all under the
// diagnostic's floor, and so is a one-day window's ~140 rows; City's groups
// are not, and neither is any masked SUM or COUNT.
var countFirstQueries = []string{
	"SELECT Device, AVG(G), MAX(P) FROM E GROUP BY Device",
	"SELECT Device, COUNT(*), SUM(G), MIN(G) FROM E GROUP BY Device",
	"SELECT Device, AVG(G), MIN(P) FROM E WHERE Day >= 30 GROUP BY Device",
	"SELECT City, AVG(G), MAX(P) FROM E GROUP BY City",
	"SELECT AVG(G), PERCENTILE(P, 0.5) FROM E WHERE Day = 44",
	"SELECT SUM(G), COUNT(*) FROM E WHERE Day = 44",
}

// countFirstGolden is the answerHasher hash of countFirstQueries, in order,
// recorded from the commit before count-first: deciding too_few_rows at the
// scan's barrier moves no answer bit.
const countFirstGolden = 0xd39c0e58c92c49e9

// TestCountFirstDifferential: count-first moves no answer bit on any
// backing, worker count or cache setting — the answers are
// the parent commit's — and it did decide: the Device query's estimate stage
// served no bar, where the City query's served one per aggregate.
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
		if device, city := barred[countFirstQueries[0]], barred[countFirstQueries[3]]; device != 0 || city == 0 {
			t.Errorf("%v: bars served: %d on Device's groups, %d on City's; want none and some", c, device, city)
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
