package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/table"
)

// buildSessions registers a Sessions table of n rows on a fresh engine.
func buildSessions(t *testing.T, cfg Config, n int) (*Engine, *table.Table) {
	t.Helper()
	src := rng.New(999)
	times := make(table.Float64Col, n)
	cities := make(table.StringCol, n)
	names := []string{"NYC", "SF", "LA", "CHI"}
	for i := 0; i < n; i++ {
		times[i] = 60 + 20*src.NormFloat64()
		cities[i] = names[src.Intn(len(names))]
	}
	tbl := table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
	}, times, cities)
	e := New(cfg)
	if err := e.RegisterTable("Sessions", tbl); err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

// heavyTailTable registers a table whose values break MAX estimation.
func heavyTailTable(t *testing.T, cfg Config, n int) *Engine {
	t.Helper()
	src := rng.New(777)
	vals := make(table.Float64Col, n)
	for i := range vals {
		vals[i] = src.Pareto(1, 1.05)
	}
	tbl := table.MustNew(table.Schema{{Name: "v", Type: table.Float64}}, vals)
	e := New(cfg)
	if err := e.RegisterTable("T", tbl); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRegisterValidation(t *testing.T) {
	e := New(Config{Seed: 1})
	if err := e.RegisterTable("", nil); err == nil {
		t.Error("empty registration accepted")
	}
	tbl := table.MustNew(table.Schema{{Name: "x", Type: table.Float64}},
		table.Float64Col{1})
	if err := e.RegisterTable("t", tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable("t", tbl); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := e.BuildSamples("nope", 10); err == nil {
		t.Error("samples on unknown table accepted")
	}
	if err := e.BuildSamples("t", 100); err == nil {
		t.Error("oversized sample accepted")
	}
}

func TestExactQueryWithoutSamples(t *testing.T) {
	e, tbl := buildSessions(t, Config{Seed: 2}, 20000)
	ans, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'")
	if err != nil {
		t.Fatal(err)
	}
	agg := ans.Groups[0].Aggs[0]
	if !agg.Exact || agg.Technique != "exact" {
		t.Error("sampleless query should execute exactly")
	}
	// Verify against manual computation.
	cities := tbl.ColumnByName("City").(table.StringCol)
	times := tbl.ColumnByName("Time").(table.Float64Col)
	var m stats.Moments
	for i := range cities {
		if cities[i] == "NYC" {
			m.Add(times[i])
		}
	}
	if math.Abs(agg.Estimate-m.Mean()) > 1e-9 {
		t.Errorf("exact AVG = %v, want %v", agg.Estimate, m.Mean())
	}
	if agg.ErrorBar.HalfWidth != 0 {
		t.Error("exact answers have zero-width error bars")
	}
}

func TestApproximateQueryWithErrorBars(t *testing.T) {
	e, tbl := buildSessions(t, Config{Seed: 3}, 100000)
	if err := e.BuildSamples("Sessions", 20000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions")
	if err != nil {
		t.Fatal(err)
	}
	if ans.SampleRows != 20000 {
		t.Errorf("sample rows = %d", ans.SampleRows)
	}
	agg := ans.Groups[0].Aggs[0]
	if agg.Exact {
		t.Fatal("expected approximate execution")
	}
	if agg.Technique != "closed-form" {
		t.Errorf("technique = %q, want closed-form for AVG", agg.Technique)
	}
	// The error bar must bracket the true answer (95% CI; seed chosen to
	// pass).
	times := tbl.ColumnByName("Time").(table.Float64Col)
	truth := stats.Mean(times)
	if !agg.ErrorBar.Contains(truth) {
		t.Errorf("error bar %v misses truth %v", agg.ErrorBar, truth)
	}
	if !agg.DiagnosticOK {
		t.Errorf("diagnostic rejected AVG on Gaussian data: %s", agg.DiagnosticReason)
	}
	if agg.RelErr <= 0 || agg.RelErr > 0.05 {
		t.Errorf("relative error = %v, want small and positive", agg.RelErr)
	}
}

func TestScaledCountEstimatesPopulation(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 4}, 80000)
	if err := e.BuildSamples("Sessions", 8000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT COUNT(*) FROM Sessions WHERE City = 'NYC'")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := e.RunExact(context.Background(), "SELECT COUNT(*) FROM Sessions WHERE City = 'NYC'")
	if err != nil {
		t.Fatal(err)
	}
	approx := ans.Groups[0].Aggs[0]
	truth := exact.Groups[0].Aggs[0].Estimate
	if relDiff := math.Abs(approx.Estimate-truth) / truth; relDiff > 0.1 {
		t.Errorf("approximate COUNT %v vs exact %v (%.1f%% off)",
			approx.Estimate, truth, 100*relDiff)
	}
	if !approx.ErrorBar.Contains(truth) {
		t.Errorf("COUNT error bar %v misses truth %v", approx.ErrorBar, truth)
	}
}

func TestBootstrapTechniqueForComplexAggregates(t *testing.T) {
	// Percentiles at small diagnostic subsample sizes are legitimately
	// noisy; this test is about technique selection, so skip diagnostics.
	e, _ := buildSessions(t, Config{Seed: 5, BootstrapK: 50, skipDiagnostics: true}, 60000)
	if err := e.BuildSamples("Sessions", 20000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT PERCENTILE(Time, 0.9) FROM Sessions")
	if err != nil {
		t.Fatal(err)
	}
	agg := ans.Groups[0].Aggs[0]
	if agg.Technique != "bootstrap" {
		t.Errorf("technique = %q, want bootstrap for PERCENTILE", agg.Technique)
	}
	if agg.ErrorBar.HalfWidth <= 0 {
		t.Error("bootstrap error bar missing")
	}
}

func TestUDFQueryEndToEnd(t *testing.T) {
	// A 40k-row sample keeps the filtered diagnostic's subsample ladder
	// large enough that its Δ/σ statistics sit clear of the c1/c2
	// acceptance thresholds rather than on the boundary.
	e, _ := buildSessions(t, Config{Seed: 6, BootstrapK: 40}, 60000)
	if err := e.BuildSamples("Sessions", 40000); err != nil {
		t.Fatal(err)
	}
	e.RegisterUDF("trimmed", func(values, weights []float64) float64 {
		var m stats.Moments
		for i, v := range values {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			if v > 0 && v < 150 {
				m.AddWeighted(v, w)
			}
		}
		return m.Mean()
	})
	ans, err := e.Run(context.Background(), "SELECT TRIMMED(Time) FROM Sessions WHERE City = 'SF'")
	if err != nil {
		t.Fatal(err)
	}
	agg := ans.Groups[0].Aggs[0]
	if agg.Technique != "bootstrap" {
		t.Errorf("UDF technique = %q", agg.Technique)
	}
	if math.IsNaN(agg.Estimate) {
		t.Error("UDF estimate NaN")
	}
}

func TestDiagnosticRejectionTriggersExactFallback(t *testing.T) {
	e := heavyTailTable(t, Config{Seed: 7, BootstrapK: 40}, 120000)
	if err := e.BuildSamples("T", 40000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT MAX(v) FROM T WHERE v > 0")
	if err != nil {
		t.Fatal(err)
	}
	agg := ans.Groups[0].Aggs[0]
	if agg.DiagnosticOK {
		t.Fatal("diagnostic accepted MAX on extreme Pareto data")
	}
	if !agg.Exact {
		t.Fatal("rejected aggregate did not fall back to exact execution")
	}
	if !ans.FellBack() {
		t.Error("FellBack() should report the fallback")
	}
	// The exact answer is the true maximum.
	exact, _ := e.RunExact(context.Background(), "SELECT MAX(v) FROM T WHERE v > 0")
	if agg.Estimate != exact.Groups[0].Aggs[0].Estimate {
		t.Error("fallback answer does not match exact execution")
	}
	if agg.DiagnosticReason == "" {
		t.Error("fallback should preserve the rejection reason")
	}
}

func TestDisableFallbackKeepsApproximation(t *testing.T) {
	e := heavyTailTable(t, Config{Seed: 8, BootstrapK: 40, noFallback: true}, 120000)
	if err := e.BuildSamples("T", 40000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT MAX(v) FROM T WHERE v > 0")
	if err != nil {
		t.Fatal(err)
	}
	agg := ans.Groups[0].Aggs[0]
	if agg.DiagnosticOK {
		t.Fatal("diagnostic accepted MAX on extreme Pareto data")
	}
	if agg.Exact {
		t.Error("fallback ran despite being disabled")
	}
}

// TestEmptyFilterWithoutCountFirst: where count-first does not run — on a
// sample too small to diagnose, or on an engine that keeps rejects rather
// than re-answer them — a closed-form aggregate whose filter leaves
// no sample row is served NaN with no bar, technique none, beside a SUM whose
// masked column answers 0 ± 0. Once the fold's "empty sample" failed the
// whole query there.
func TestEmptyFilterWithoutCountFirst(t *testing.T) {
	const q = "SELECT AVG(v), SUM(v), MAX(v) FROM T WHERE v < 0"
	small := heavyTailTable(t, Config{Seed: 48, BootstrapK: 40}, 20000)
	if err := small.BuildSamples("T", 2000); err != nil {
		t.Fatal(err)
	}
	keeps := heavyTailTable(t, Config{Seed: 48, BootstrapK: 40, noFallback: true}, 120000)
	if err := keeps.BuildSamples("T", 40000); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		e         *Engine
		diagnosed bool
	}{
		{"undiagnosed small sample", small, false},
		{"rejects kept", keeps, true},
	} {
		ans, err := c.e.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ans.SampleRows == 0 {
			t.Fatalf("%s: answered exactly, want the sample", c.name)
		}
		avg, sum := ans.Groups[0].Aggs[0], ans.Groups[0].Aggs[1]
		if avg.Technique != "none" || avg.Exact || !math.IsNaN(avg.Estimate) ||
			!math.IsNaN(avg.ErrorBar.Center) || !math.IsNaN(avg.ErrorBar.HalfWidth) {
			t.Errorf("%s: AVG %+v, want NaN with no bar, technique none", c.name, avg)
		}
		if diagnosed := avg.DiagnosticCause != ""; diagnosed != c.diagnosed ||
			(diagnosed && avg.DiagnosticCause != "too_few_rows") {
			t.Errorf("%s: AVG's diagnosis %q, want too_few_rows = %v", c.name, avg.DiagnosticCause, c.diagnosed)
		}
		if sum.Technique != "closed-form" || sum.Estimate != 0 || sum.ErrorBar.HalfWidth != 0 {
			t.Errorf("%s: SUM %+v, want 0 ± 0 from the closed form", c.name, sum)
		}
	}
}

func TestGroupByAnswers(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 10, skipDiagnostics: true}, 100000)
	if err := e.BuildSamples("Sessions", 40000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT City, AVG(Time) FROM Sessions GROUP BY City")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Groups) != 4 {
		t.Fatalf("groups = %d", len(ans.Groups))
	}
	exact, err := e.RunExact(context.Background(), "SELECT City, AVG(Time) FROM Sessions GROUP BY City")
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range ans.Groups {
		truth := exact.Groups[i].Aggs[0].Estimate
		if g.Key != exact.Groups[i].Key {
			t.Fatalf("group keys diverge: %q vs %q", g.Key, exact.Groups[i].Key)
		}
		if !g.Aggs[0].ErrorBar.Contains(truth) {
			t.Errorf("group %s error bar %v misses truth %v",
				g.Key, g.Aggs[0].ErrorBar, truth)
		}
	}
}

func TestExplain(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 11}, 50000)
	if err := e.BuildSamples("Sessions", 20000); err != nil {
		t.Fatal(err)
	}
	out, err := e.Explain("SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Scan(Sessions)", "Filter", "Aggregate", "Diagnostic"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 12}, 1000)
	cases := []string{
		"not sql",
		"SELECT AVG(Time) FROM NoSuch",
		"SELECT NOSUCHUDF(Time) FROM Sessions",
	}
	for _, q := range cases {
		if _, err := e.Run(context.Background(), q); err == nil {
			t.Errorf("Query(%q) unexpectedly succeeded", q)
		}
	}
	// The §5.2 rewrite surface is not grammar: approximate and exact
	// execution both refuse it as a parse error instead of answering it.
	if err := e.BuildSamples("Sessions", 500); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT AVG(Time) FROM Sessions UNION ALL SELECT AVG(Time) FROM Sessions",
		"SELECT AVG(Time) FROM Sessions TABLESAMPLE POISSONIZED (100)",
	} {
		for name, run := range map[string]func(context.Context, string) (*Answer, error){
			"Run": e.Run, "RunExact": e.RunExact,
		} {
			var perr *sql.Error
			if _, err := run(context.Background(), q); !errors.As(err, &perr) {
				t.Errorf("%s(%q) = %v, want a *sql.Error", name, q, err)
			}
		}
	}
}

func TestCountersExposedOnAnswer(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 14, skipDiagnostics: true}, 50000)
	if err := e.BuildSamples("Sessions", 10000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Counters.Scans < 1 || ans.Counters.RowsScanned != 10000 {
		t.Errorf("counters: %+v", ans.Counters)
	}
	if ans.Elapsed <= 0 {
		t.Error("elapsed time not measured")
	}
}

func TestMixedAggregateQuery(t *testing.T) {
	// AVG uses closed form while MAX uses the bootstrap, in one query.
	e, _ := buildSessions(t, Config{Seed: 15, BootstrapK: 40, skipDiagnostics: true}, 60000)
	if err := e.BuildSamples("Sessions", 20000); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT AVG(Time), MAX(Time) FROM Sessions")
	if err != nil {
		t.Fatal(err)
	}
	aggs := ans.Groups[0].Aggs
	if aggs[0].Technique != "closed-form" {
		t.Errorf("AVG technique = %q", aggs[0].Technique)
	}
	if aggs[1].Technique != "bootstrap" {
		t.Errorf("MAX technique = %q", aggs[1].Technique)
	}
}

// TestCountColumnEqualsCountStar: the engine has no NULLs, so COUNT(<expr>)
// counts rows exactly as COUNT(*) does — it used to return SUM(<expr>).
func TestCountColumnEqualsCountStar(t *testing.T) {
	tiny := New(Config{Seed: 16})
	if err := tiny.RegisterTable("T", table.MustNew(table.Schema{
		{Name: "X", Type: table.Float64}, {Name: "G", Type: table.String},
	}, table.Float64Col{10, 20, 30, 40}, table.StringCol{"a", "a", "b", "b"})); err != nil {
		t.Fatal(err)
	}
	ans, err := tiny.Run(context.Background(), "SELECT COUNT(X) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if got := ans.Groups[0].Aggs[0].Estimate; got != 4 {
		t.Errorf("COUNT(X) over {10,20,30,40} = %v, want 4", got)
	}
	ans, err = tiny.Run(context.Background(), "SELECT G, COUNT(X) FROM T GROUP BY G")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range ans.Groups {
		if got := g.Aggs[0].Estimate; got != 2 {
			t.Errorf("COUNT(X) of group %q = %v, want 2", g.Key, got)
		}
	}
	if _, err := tiny.Run(context.Background(), "SELECT COUNT(nosuch) FROM T"); err == nil {
		t.Error("COUNT of an unknown column accepted")
	}

	exact, _ := buildSessions(t, Config{Seed: 17}, 20000)
	approx, _ := buildSessions(t, Config{Seed: 17, noFallback: true}, 60000)
	if err := approx.BuildSamples("Sessions", 20000); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"exact": exact, "approximate": approx} {
		for _, tail := range []string{
			"FROM Sessions",
			"FROM Sessions WHERE Time > 55",
			"FROM Sessions GROUP BY City",
			"FROM Sessions WHERE Time > 55 GROUP BY City",
		} {
			star, err := e.Run(context.Background(), "SELECT COUNT(*) "+tail)
			if err != nil {
				t.Fatal(err)
			}
			for _, arg := range []string{"Time", "Time * 2", "City"} {
				col, err := e.Run(context.Background(), "SELECT COUNT("+arg+") "+tail)
				if err != nil {
					t.Fatalf("%s COUNT(%s) %s: %v", name, arg, tail, err)
				}
				if len(col.Groups) != len(star.Groups) {
					t.Fatalf("%s COUNT(%s) %s: %d groups, COUNT(*) has %d",
						name, arg, tail, len(col.Groups), len(star.Groups))
				}
				for gi, g := range star.Groups {
					got, want := col.Groups[gi].Aggs[0], g.Aggs[0]
					if col.Groups[gi].Key != g.Key || got.Estimate != want.Estimate ||
						got.ErrorBar != want.ErrorBar || got.Exact != want.Exact {
						t.Errorf("%s COUNT(%s) %s group %q: %+v, COUNT(*) gives %+v",
							name, arg, tail, g.Key, got, want)
					}
				}
			}
		}
	}
}
