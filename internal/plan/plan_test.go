package plan

import (
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/sql"
)

func analyze(t *testing.T, q string) *QueryDef {
	t.Helper()
	sel := sql.MustParse(q).(*sql.Select)
	def, err := Analyze(sel, func(name string) bool { return name == "MYUDF" })
	if err != nil {
		t.Fatalf("Analyze(%s): %v", q, err)
	}
	return def
}

func TestAnalyzeSimple(t *testing.T) {
	def := analyze(t, "SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'")
	if def.Table != "Sessions" {
		t.Errorf("table = %q", def.Table)
	}
	if def.Where == nil {
		t.Error("filter missing")
	}
	if len(def.Aggs) != 1 || def.Aggs[0].Kind != estimator.Avg {
		t.Errorf("aggs = %+v", def.Aggs)
	}
	if def.Aggs[0].Alias != "avg" {
		t.Errorf("default alias = %q", def.Aggs[0].Alias)
	}
}

func TestAnalyzeAllAggregates(t *testing.T) {
	def := analyze(t, "SELECT AVG(x), SUM(x), COUNT(*), MIN(x), MAX(x), VARIANCE(x), STDEV(x), PERCENTILE(x, 0.95), MYUDF(x) FROM t")
	if len(def.Aggs) != 9 {
		t.Fatalf("aggs = %d", len(def.Aggs))
	}
	kinds := []estimator.AggKind{
		estimator.Avg, estimator.Sum, estimator.Count, estimator.Min,
		estimator.Max, estimator.Variance, estimator.Stdev,
		estimator.Percentile, estimator.UDF,
	}
	for i, k := range kinds {
		if def.Aggs[i].Kind != k {
			t.Errorf("agg %d kind = %v, want %v", i, def.Aggs[i].Kind, k)
		}
	}
	if def.Aggs[7].Pct != 0.95 {
		t.Error("percentile level lost")
	}
	if def.Aggs[8].UDFName != "MYUDF" {
		t.Error("UDF name lost")
	}
	if def.Aggs[2].Input != nil {
		t.Error("COUNT(*) should have nil input")
	}
}

func TestAnalyzeGroupBy(t *testing.T) {
	def := analyze(t, "SELECT city, AVG(t) FROM s GROUP BY city")
	if len(def.GroupBy) != 1 || def.GroupBy[0] != "city" {
		t.Errorf("group by = %v", def.GroupBy)
	}
	if len(def.Aggs) != 1 {
		t.Errorf("aggs = %d", len(def.Aggs))
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []string{
		"SELECT x FROM t", // bare column, no group by
		"SELECT city, AVG(x) FROM t GROUP BY other", // column not in group
		"SELECT AVG(x, y) FROM t",                   // arity
		"SELECT AVG(*) FROM t",                      // star in AVG
		"SELECT NOSUCHFN(x) FROM t",                 // unknown function
		"SELECT PERCENTILE(x) FROM t",               // percentile arity
		"SELECT PERCENTILE(x, 2) FROM t",            // bad level
		"SELECT PERCENTILE(x, 'a') FROM t",          // non-numeric level
		"SELECT MYUDF(x, y) FROM t",                 // UDF arity
		"SELECT city FROM t GROUP BY city",          // no aggregate at all
	}
	for _, q := range cases {
		sel := sql.MustParse(q).(*sql.Select)
		if _, err := Analyze(sel, func(n string) bool { return n == "MYUDF" }); err == nil {
			t.Errorf("Analyze(%q) unexpectedly succeeded", q)
		}
	}
}

func TestNeedsResamples(t *testing.T) {
	for _, c := range []struct {
		query   string
		popRows int
		want    bool
	}{
		{"SELECT AVG(x), SUM(y) FROM t", 1000, false},
		{"SELECT AVG(x), MAX(y) FROM t", 1000, true},
		// A group's SUM/COUNT is a fixed-scale sum: its bar is the bootstrap's.
		{"SELECT g, COUNT(*) FROM t GROUP BY g", 1000, true},
		{"SELECT g, AVG(x) FROM t GROUP BY g", 1000, false},
		// Rows that are the whole table have plain sums, grouped or not.
		{"SELECT g, SUM(y) FROM t GROUP BY g", 0, false},
	} {
		if got := analyze(t, c.query).NeedsResamples(c.popRows, 100); got != c.want {
			t.Errorf("%s on %d rows: NeedsResamples = %v, want %v", c.query, c.popRows, got, c.want)
		}
	}
}

// TestAggSpecQuery pins how SUM and COUNT scale to the population.
func TestAggSpecQuery(t *testing.T) {
	count := AggSpec{Kind: estimator.Count}
	// Ungrouped COUNT sees the full masked column: 20 ones among 100 rows
	// of a sample representing 1000 population rows → estimate 200.
	masked := make([]float64, 100)
	for i := 0; i < 20; i++ {
		masked[i] = 1
	}
	q := count.Query(1000, 100, false, nil)
	if got := q.Eval(masked); got != 200 {
		t.Errorf("scaled COUNT = %v, want 200", got)
	}
	if !q.ClosedFormApplicable() {
		t.Error("ungrouped scaled COUNT has no closed form")
	}
	// Grouped COUNT is the fixed-scale sum over its group's rows; a resample
	// of weight 2 on every row doubles it, rather than self-normalizing.
	qg := count.Query(1000, 100, true, nil)
	if got := qg.Eval(masked[:20]); got != 200 {
		t.Errorf("grouped scaled COUNT = %v, want 200", got)
	}
	twos := make([]float64, 20)
	for i := range twos {
		twos[i] = 2
	}
	if got := qg.EvalWeighted(masked[:20], twos); got != 400 {
		t.Errorf("grouped scaled COUNT under weight 2 = %v, want 400", got)
	}
	if got := qg.FinalizeFused(40, 40, 20); got != 400 {
		t.Errorf("grouped scaled COUNT from fused sums = %v, want 400", got)
	}
	if qg.ClosedFormApplicable() {
		t.Error("grouped scaled COUNT has a closed form")
	}
}

func TestBuildFullyOptimizedShape(t *testing.T) {
	def := analyze(t, "SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'")
	p, err := Build(def, DefaultOptions(100000))
	if err != nil {
		t.Fatal(err)
	}
	// Expected chain root → leaf:
	// Diagnostic → Bootstrap → Aggregate → Resample → Project → Filter → Scan.
	// Consolidated: the diagnostic's weight groups ride in the same scan as
	// the K bootstrap weights.
	lines := strings.Split(strings.TrimRight(p.Explain(), "\n"), "\n")
	wantOrder := []string{"Diagnostic", "Bootstrap", "Aggregate",
		"PoissonizedResample(K=100, diag=[125 250 500]×100)", "Project", "Filter", "Scan(Sessions)"}
	if len(lines) != len(wantOrder) {
		t.Fatalf("chain length %d: %v", len(lines), lines)
	}
	for i, w := range wantOrder {
		if !strings.HasPrefix(strings.TrimLeft(lines[i], " "), w) {
			t.Errorf("position %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}

func TestBuildPlainAnswerOnly(t *testing.T) {
	def := analyze(t, "SELECT AVG(x) FROM t")
	p, err := Build(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	if !strings.HasPrefix(out, "Aggregate(AVG(x))\n") {
		t.Errorf("root is not a bare Aggregate:\n%s", out)
	}
	if strings.Contains(out, "Resample") {
		t.Errorf("no resample expected without error estimation:\n%s", out)
	}
}

func TestBuildValidation(t *testing.T) {
	def := analyze(t, "SELECT AVG(x) FROM t")
	if _, err := Build(def, Options{BootstrapK: -1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := Build(def, Options{Diagnostics: true, SampleRows: 6399}); err == nil {
		t.Error("diagnostics on a sample too small to diagnose accepted")
	}
	if _, err := Build(&QueryDef{Table: "t"}, Options{}); err == nil {
		t.Error("no aggregates accepted")
	}
}

func TestExplainRendersTree(t *testing.T) {
	def := analyze(t, "SELECT AVG(x) FROM t WHERE x > 1")
	p, _ := Build(def, DefaultOptions(10000))
	out := p.Explain()
	for _, want := range []string{"Diagnostic", "Bootstrap", "Aggregate",
		"PoissonizedResample", "Filter", "Scan(t)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Indentation should increase down the tree.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[1], "  ") {
		t.Errorf("Explain lacks indentation:\n%s", out)
	}
}

// TestExplainGolden pins the EXPLAIN rendering byte for byte across the
// plan shapes Build emits: exact, bootstrap only, bootstrap + diagnostic,
// verdict-first, closed-form diagnostic (K = 0), with and without WHERE,
// without a projection (COUNT(*)), grouped, and PERCENTILE/UDF labels.
// Aliases never render.
func TestExplainGolden(t *testing.T) {
	vf := DefaultOptions(10000)
	vf.VerdictFirst = true
	closedForm := Options{Diagnostics: true, SampleRows: 10000}
	cases := []struct {
		q    string
		opt  Options
		want string
	}{
		{"SELECT AVG(x) FROM t", Options{},
			"Aggregate(AVG(x))\n  Project(x)\n    Scan(t)\n"},
		{"SELECT AVG(x) FROM t WHERE x > 1", Options{},
			"Aggregate(AVG(x))\n  Project(x)\n    Filter((x > 1))\n      Scan(t)\n"},
		{"SELECT COUNT(*) FROM t", Options{},
			"Aggregate(COUNT(*))\n  Scan(t)\n"},
		{"SELECT COUNT(*) FROM t WHERE city = 'NYC'", DefaultOptions(10000),
			"Diagnostic(sizes=[12 25 50], p=100)\n  Bootstrap(K=100, α=0.95)\n    Aggregate(COUNT(*) [weighted])\n      PoissonizedResample(K=100, diag=[12 25 50]×100)\n        Filter((city = 'NYC'))\n          Scan(t)\n"},
		{"SELECT SUM(x) FROM t", Options{BootstrapK: 50},
			"Bootstrap(K=50, α=0.95)\n  Aggregate(SUM(x) [weighted])\n    PoissonizedResample(K=50)\n      Project(x)\n        Scan(t)\n"},
		{"SELECT MAX(x) FROM t WHERE x > 1 AND y < 2", Options{BootstrapK: 50},
			"Bootstrap(K=50, α=0.95)\n  Aggregate(MAX(x) [weighted])\n    PoissonizedResample(K=50)\n      Project(x)\n        Filter(((x > 1) AND (y < 2)))\n          Scan(t)\n"},
		{"SELECT AVG(x) FROM t", Options{BootstrapK: 20, SampleRows: 10000},
			"Bootstrap(K=20, α=0.95)\n  Aggregate(AVG(x) [weighted])\n    PoissonizedResample(K=20)\n      Project(x)\n        Scan(t)\n"},
		{"SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'", DefaultOptions(100000),
			"Diagnostic(sizes=[125 250 500], p=100)\n  Bootstrap(K=100, α=0.95)\n    Aggregate(AVG(Time) [weighted])\n      PoissonizedResample(K=100, diag=[125 250 500]×100)\n        Project(Time)\n          Filter((City = 'NYC'))\n            Scan(Sessions)\n"},
		{"SELECT AVG(x), SUM(x * 2) FROM t WHERE y > 1", vf,
			"Diagnostic(sizes=[12 25 50], p=100, verdict-first)\n  Bootstrap(K=100, α=0.95)\n    Aggregate(AVG(x), SUM((x * 2)) [weighted])\n      PoissonizedResample(K=100, diag=[12 25 50]×100)\n        Project(x, (x * 2))\n          Filter((y > 1))\n            Scan(t)\n"},
		{"SELECT AVG(x) FROM t", closedForm,
			"Diagnostic(sizes=[12 25 50], p=100)\n  Aggregate(AVG(x) [weighted])\n    PoissonizedResample(K=0, diag=[12 25 50]×100)\n      Project(x)\n        Scan(t)\n"},
		{"SELECT city, AVG(x), COUNT(*) FROM t GROUP BY city", DefaultOptions(10000),
			"Diagnostic(sizes=[12 25 50], p=100)\n  Bootstrap(K=100, α=0.95)\n    Aggregate(AVG(x), COUNT(*) GROUP BY city [weighted])\n      PoissonizedResample(K=100, diag=[12 25 50]×100)\n        Project(x)\n          Scan(t)\n"},
		{"SELECT city, MAX(x) FROM t WHERE x > 0 GROUP BY city", Options{},
			"Aggregate(MAX(x) GROUP BY city)\n  Project(x)\n    Filter((x > 0))\n      Scan(t)\n"},
		{"SELECT PERCENTILE(x, 0.95), MYUDF(y) AS u FROM t", DefaultOptions(10000),
			"Diagnostic(sizes=[12 25 50], p=100)\n  Bootstrap(K=100, α=0.95)\n    Aggregate(PERCENTILE(x, 0.95), MYUDF(y) [weighted])\n      PoissonizedResample(K=100, diag=[12 25 50]×100)\n        Project(x, y)\n          Scan(t)\n"},
		{"SELECT PERCENTILE(x, 0.5) AS med FROM t WHERE x >= 3", Options{},
			"Aggregate(PERCENTILE(x, 0.5))\n  Project(x)\n    Filter((x >= 3))\n      Scan(t)\n"},
	}
	for _, c := range cases {
		p, err := Build(analyze(t, c.q), c.opt)
		if err != nil {
			t.Fatalf("Build(%s): %v", c.q, err)
		}
		if got := p.Explain(); got != c.want {
			t.Errorf("%s\ngot:\n%s\nwant:\n%s", c.q, got, c.want)
		}
	}
}

func TestAggSpecLabel(t *testing.T) {
	cases := []struct {
		spec AggSpec
		want string
	}{
		{AggSpec{Kind: estimator.Avg, Input: &sql.ColumnRef{Name: "x"}}, "AVG(x)"},
		{AggSpec{Kind: estimator.Count}, "COUNT(*)"},
		{AggSpec{Kind: estimator.Percentile, Pct: 0.9, Input: &sql.ColumnRef{Name: "l"}}, "PERCENTILE(l, 0.9)"},
		{AggSpec{Kind: estimator.UDF, UDFName: "F", Input: &sql.ColumnRef{Name: "x"}}, "F(x)"},
	}
	for _, c := range cases {
		if got := c.spec.Label(); got != c.want {
			t.Errorf("label = %q, want %q", got, c.want)
		}
	}
}
