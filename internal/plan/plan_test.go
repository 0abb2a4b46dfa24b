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

func TestClosedFormOK(t *testing.T) {
	if !analyze(t, "SELECT AVG(x), SUM(y) FROM t").ClosedFormOK() {
		t.Error("AVG+SUM should be closed-form OK")
	}
	if analyze(t, "SELECT AVG(x), MAX(y) FROM t").ClosedFormOK() {
		t.Error("MAX should break closed-form applicability")
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
	var labels []string
	Walk(p.Root, func(n Node) { labels = append(labels, n.Label()) })
	wantOrder := []string{"Diagnostic", "Bootstrap", "Aggregate",
		"PoissonizedResample", "Project", "Filter", "Scan"}
	if len(labels) != len(wantOrder) {
		t.Fatalf("chain length %d: %v", len(labels), labels)
	}
	for i, w := range wantOrder {
		if !strings.HasPrefix(labels[i], w) {
			t.Errorf("position %d = %q, want prefix %q", i, labels[i], w)
		}
	}
	// Consolidated: the diagnostic's weight groups ride in the same scan.
	r := FindResample(p.Root)
	if r.WeightColumns() != 100+3*100 {
		t.Errorf("weight columns = %d, want 400", r.WeightColumns())
	}
	if FindScan(p.Root).Table != "Sessions" {
		t.Error("scan table wrong")
	}
}

func TestBuildPlainAnswerOnly(t *testing.T) {
	def := analyze(t, "SELECT AVG(x) FROM t")
	p, err := Build(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Root.(*Aggregate); !ok {
		t.Errorf("root = %T, want bare Aggregate", p.Root)
	}
	if FindResample(p.Root) != nil {
		t.Error("no resample expected without error estimation")
	}
}

func TestBuildValidation(t *testing.T) {
	def := analyze(t, "SELECT AVG(x) FROM t")
	if _, err := Build(def, Options{BootstrapK: -1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := Build(def, Options{Diagnostics: true}); err == nil {
		t.Error("diagnostics without sizes accepted")
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
