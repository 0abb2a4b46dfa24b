package exec

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/plan"
	"repro/internal/resample"
	"repro/internal/rng"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/table"
)

// sessionsTable builds a deterministic Sessions table with a Time column,
// a City string column and an int64 user id column.
func sessionsTable(n int, seed uint64) *table.Table {
	src := rng.New(seed)
	times := make(table.Float64Col, n)
	cities := make(table.StringCol, n)
	users := make(table.Int64Col, n)
	names := []string{"NYC", "SF", "LA", "CHI"}
	for i := 0; i < n; i++ {
		times[i] = 60 + 20*src.NormFloat64()
		cities[i] = names[src.Intn(len(names))]
		users[i] = int64(src.Intn(1000))
	}
	return table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
		{Name: "user", Type: table.Int64},
	}, times, cities, users)
}

func mustPlan(t *testing.T, q string, opt plan.Options, udfNames ...string) *plan.Plan {
	t.Helper()
	isUDF := func(name string) bool {
		for _, u := range udfNames {
			if u == name {
				return true
			}
		}
		return false
	}
	def, err := plan.Analyze(sql.MustParse(q).(*sql.Select), isUDF)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(def, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func storedSessions(n int, seed uint64) *StoredTable {
	return &StoredTable{Data: sessionsTable(n, seed), PopRows: n * 10}
}

// --- Expression evaluation ---

// stddev is the population standard deviation of xs.
func stddev(xs []float64) float64 {
	var m stats.Moments
	m.AddAll(xs)
	return m.Stddev()
}

func TestEvalNumericArithmetic(t *testing.T) {
	tbl := table.MustNew(table.Schema{{Name: "x", Type: table.Float64}},
		table.Float64Col{1, 2, 3})
	e := sql.MustParse("SELECT AVG(x * 2 + 1) FROM t").(*sql.Select).
		Items[0].Expr.(*sql.FuncCall).Args[0]
	vals, err := evalNumeric(e, tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 5, 7}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("vals = %v", vals)
			break
		}
	}
}

func TestEvalNumericIntCoercionAndScalar(t *testing.T) {
	tbl := table.MustNew(table.Schema{{Name: "n", Type: table.Int64}},
		table.Int64Col{1, 2})
	vals, err := evalNumeric(&sql.ColumnRef{Name: "n"}, tbl, nil)
	if err != nil || vals[1] != 2 {
		t.Errorf("int coercion: %v %v", vals, err)
	}
	lit, err := evalNumeric(&sql.Literal{Num: 7}, tbl, nil)
	if err != nil || len(lit) != 2 || lit[0] != 7 {
		t.Errorf("scalar broadcast: %v %v", lit, err)
	}
}

func TestEvalNumericErrors(t *testing.T) {
	tbl := sessionsTable(10, 1)
	if _, err := evalNumeric(&sql.ColumnRef{Name: "nope"}, tbl, nil); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := evalNumeric(&sql.ColumnRef{Name: "City"}, tbl, nil); err == nil {
		t.Error("string column accepted as numeric")
	}
	bad := &sql.Binary{Op: "+", L: &sql.ColumnRef{Name: "City"}, R: &sql.Literal{Num: 1}}
	if _, err := evalNumeric(bad, tbl, nil); err == nil {
		t.Error("string arithmetic accepted")
	}
}

func TestEvalPredicateStringAndNumeric(t *testing.T) {
	tbl := sessionsTable(1000, 2)
	pred := sql.MustParse("SELECT COUNT(*) FROM t WHERE City = 'NYC' AND Time > 60").(*sql.Select).Where
	sel, err := EvalPredicate(pred, tbl)
	if err != nil {
		t.Fatal(err)
	}
	cities := tbl.ColumnByName("City").(table.StringCol)
	times := tbl.ColumnByName("Time").(table.Float64Col)
	for _, i := range sel {
		if cities[i] != "NYC" || times[i] <= 60 {
			t.Fatalf("row %d fails predicate", i)
		}
	}
	// Verify completeness: count matches a manual scan.
	want := 0
	for i := 0; i < tbl.NumRows(); i++ {
		if cities[i] == "NYC" && times[i] > 60 {
			want++
		}
	}
	if len(sel) != want {
		t.Errorf("selected %d rows, want %d", len(sel), want)
	}
}

func TestEvalPredicateOrNotComparators(t *testing.T) {
	tbl := sessionsTable(500, 3)
	pred := sql.MustParse(
		"SELECT COUNT(*) FROM t WHERE NOT (City = 'SF') OR Time <= 50").(*sql.Select).Where
	sel, err := EvalPredicate(pred, tbl)
	if err != nil {
		t.Fatal(err)
	}
	cities := tbl.ColumnByName("City").(table.StringCol)
	times := tbl.ColumnByName("Time").(table.Float64Col)
	for _, i := range sel {
		if !(cities[i] != "SF" || times[i] <= 50) {
			t.Fatalf("row %d fails predicate", i)
		}
	}
}

func TestEvalPredicateErrors(t *testing.T) {
	tbl := sessionsTable(10, 4)
	if _, err := EvalPredicate(&sql.ColumnRef{Name: "Time"}, tbl); err == nil {
		t.Error("non-boolean WHERE accepted")
	}
	mixed := &sql.Binary{Op: "=", L: &sql.ColumnRef{Name: "City"}, R: &sql.Literal{Num: 3}}
	if _, err := EvalPredicate(mixed, tbl); err == nil {
		t.Error("string-vs-number comparison accepted")
	}
}

// --- End-to-end plan execution ---

func TestRunPlainAggregate(t *testing.T) {
	st := storedSessions(10000, 5)
	p := mustPlan(t, "SELECT AVG(Time) FROM Sessions", plan.Options{})
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || len(res.Groups[0].Aggs) != 1 {
		t.Fatalf("result shape: %+v", res.Groups)
	}
	got := res.Groups[0].Aggs[0].Value
	want := st.Data.ColumnByName("Time").(table.Float64Col)
	if math.Abs(got-stats.Mean(want)) > 1e-9 {
		t.Errorf("AVG = %v, want %v", got, stats.Mean(want))
	}
	c := res.Counters
	if c.Scans != 1 || c.Subqueries != 1 {
		t.Errorf("counters: %+v", c)
	}
	if c.RowsScanned != 10000 {
		t.Errorf("rows scanned = %d", c.RowsScanned)
	}
}

func TestRunFilteredAggregateMatchesManual(t *testing.T) {
	st := storedSessions(20000, 6)
	p := mustPlan(t, "SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'", plan.Options{})
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tbl := st.Data
	cities := tbl.ColumnByName("City").(table.StringCol)
	times := tbl.ColumnByName("Time").(table.Float64Col)
	var m stats.Moments
	n := 0
	for i := range cities {
		if cities[i] == "NYC" {
			m.Add(times[i])
			n++
		}
	}
	if math.Abs(res.Groups[0].Aggs[0].Value-m.Mean()) > 1e-9 {
		t.Errorf("filtered AVG = %v, want %v", res.Groups[0].Aggs[0].Value, m.Mean())
	}
	if res.Counters.RowsAfterFilter != int64(n) {
		t.Errorf("rows after filter = %d, want %d", res.Counters.RowsAfterFilter, n)
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	st := storedSessions(9973, 7) // prime size exercises partition edges
	q := "SELECT SUM(Time), COUNT(*), MIN(Time), MAX(Time) FROM Sessions WHERE Time > 55"
	var ref *Result
	for _, workers := range []int{1, 2, 4, 8} {
		p := mustPlan(t, q, plan.Options{})
		res, err := Run(context.Background(), p, st, nil, Config{Workers: workers, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for ai := range ref.Groups[0].Aggs {
			a, b := ref.Groups[0].Aggs[ai].Value, res.Groups[0].Aggs[ai].Value
			if math.Abs(a-b) > 1e-6*math.Abs(a) {
				t.Errorf("workers=%d agg %d: %v != %v", workers, ai, b, a)
			}
		}
	}
}

func TestRunScaledSumAndCount(t *testing.T) {
	// PopRows = 10x sample rows: COUNT(*) must estimate ~PopRows, and
	// SUM must estimate ~10x the sample sum.
	st := storedSessions(5000, 8)
	p := mustPlan(t, "SELECT COUNT(*), SUM(Time) FROM Sessions", plan.Options{})
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	count := res.Groups[0].Aggs[0].Value
	if count != 50000 {
		t.Errorf("scaled COUNT = %v, want 50000", count)
	}
	times := st.Data.ColumnByName("Time").(table.Float64Col)
	wantSum := 10 * stats.Mean(times) * float64(len(times))
	if math.Abs(res.Groups[0].Aggs[1].Value-wantSum)/wantSum > 1e-9 {
		t.Errorf("scaled SUM = %v, want %v", res.Groups[0].Aggs[1].Value, wantSum)
	}
}

func TestRunGroupBy(t *testing.T) {
	st := storedSessions(8000, 9)
	p := mustPlan(t, "SELECT City, AVG(Time) FROM Sessions GROUP BY City", plan.Options{})
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %d, want 4 cities", len(res.Groups))
	}
	// Keys sorted, values match manual computation.
	tbl := st.Data
	cities := tbl.ColumnByName("City").(table.StringCol)
	times := tbl.ColumnByName("Time").(table.Float64Col)
	for _, g := range res.Groups {
		var m stats.Moments
		for i := range cities {
			if cities[i] == g.Key {
				m.Add(times[i])
			}
		}
		if math.Abs(g.Aggs[0].Value-m.Mean()) > 1e-9 {
			t.Errorf("group %s AVG = %v, want %v", g.Key, g.Aggs[0].Value, m.Mean())
		}
	}
}

func TestRunBootstrapProducesSaneDistribution(t *testing.T) {
	st := storedSessions(20000, 10)
	opt := plan.Options{BootstrapK: 80}
	p := mustPlan(t, "SELECT PERCENTILE(Time, 0.5) FROM Sessions", opt)
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Groups[0].Aggs[0]
	if len(out.Bootstrap) != 80 {
		t.Fatalf("bootstrap estimates = %d", len(out.Bootstrap))
	}
	// The bootstrap SE of a normal sample's median should approximate
	// √(π/2)·s/√n.
	times := st.Data.ColumnByName("Time").(table.Float64Col)
	var m stats.Moments
	m.AddAll(times)
	wantSE := math.Sqrt(math.Pi / 2 * m.SampleVariance() / 20000)
	se := stddev(out.Bootstrap)
	if se < 0.5*wantSE || se > 2*wantSE {
		t.Errorf("bootstrap SE = %v, want ~%v", se, wantSE)
	}
	// Still one scan, one subquery.
	if res.Counters.Scans != 1 || res.Counters.Subqueries != 1 {
		t.Errorf("counters: %+v", res.Counters)
	}
	if res.Counters.WeightDraws != 80*20000 {
		t.Errorf("weight draws = %d, want %d", res.Counters.WeightDraws, 80*20000)
	}
}

// TestRunBootstrapDeterministicAcrossWorkerCounts covers both resample
// kernels: a group's SUM runs on kernel.FusedSums, a median on
// kernel.Generic.
func TestRunBootstrapDeterministicAcrossWorkerCounts(t *testing.T) {
	st := storedSessions(5000, 11)
	const k = 40
	opt := plan.Options{BootstrapK: k}
	var ref *Result
	for _, workers := range []int{1, 3, 7} {
		p := mustPlan(t, "SELECT City, SUM(Time), PERCENTILE(Time, 0.5) FROM Sessions GROUP BY City", opt)
		res, err := Run(context.Background(), p, st, nil, Config{Workers: workers, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			for ai, a := range g.Aggs {
				if len(a.Bootstrap) != k {
					t.Fatalf("workers=%d: group %q agg %d has %d resamples, want %d",
						workers, g.Key, ai, len(a.Bootstrap), k)
				}
			}
		}
		if ref == nil {
			ref = res
			continue
		}
		resultsEqual(t, fmt.Sprintf("workers=%d", workers), res, ref)
	}
}

func TestRunDiagnosticOperator(t *testing.T) {
	st := storedSessions(60000, 13)
	opt := plan.DefaultOptions(60000)
	opt.BootstrapK = 40
	p := mustPlan(t, "SELECT AVG(Time) FROM Sessions", opt)
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Groups[0].Aggs[0]
	if out.Diag == nil {
		t.Fatal("diagnostic result missing")
	}
	if !out.Diag.OK {
		t.Errorf("diagnostic rejected Gaussian AVG: %s", out.Diag.Reason)
	}
	if res.Counters.DiagSubqueries == 0 {
		t.Error("diagnostic subquery count not recorded")
	}
	// The diagnostic rides in the same scan: no extra logical subqueries.
	if res.Counters.Subqueries != 1 {
		t.Errorf("pipeline subqueries = %d, want 1", res.Counters.Subqueries)
	}
}

func TestRunDiagnosticShrinksLadderWhenFilterTight(t *testing.T) {
	st := storedSessions(20000, 15)
	opt := plan.DefaultOptions(20000) // ladder sized for the full table
	opt.BootstrapK = 20
	// ~25% of rows are NYC, so the configured ladder cannot fit and the
	// executor must shrink it rather than fail.
	p := mustPlan(t, "SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'", opt)
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Aggs[0].Diag == nil {
		t.Fatal("diagnostic missing")
	}
}

func TestRunUDF(t *testing.T) {
	st := storedSessions(10000, 16)
	udfs := Registry{"CLAMPEDMEAN": func(values, weights []float64) float64 {
		var m stats.Moments
		for i, v := range values {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			if v > 100 {
				v = 100
			}
			m.AddWeighted(v, w)
		}
		return m.Mean()
	}}
	opt := plan.Options{BootstrapK: 30}
	p := mustPlan(t, "SELECT CLAMPEDMEAN(Time) FROM Sessions", opt, "CLAMPEDMEAN")
	res, err := Run(context.Background(), p, st, udfs, Config{Workers: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Groups[0].Aggs[0]
	if math.IsNaN(out.Value) {
		t.Error("UDF value NaN")
	}
	if len(out.Bootstrap) != 30 {
		t.Error("UDF bootstrap missing")
	}
}

func TestRunErrors(t *testing.T) {
	st := storedSessions(100, 17)
	p := mustPlan(t, "SELECT nope, AVG(Time) FROM Sessions GROUP BY nope", plan.Options{})
	want := `exec: grouping on table "Sessions": exec: unknown GROUP BY column "nope"`
	if _, err := Run(context.Background(), p, st, nil, Config{}); err == nil || err.Error() != want {
		t.Errorf("bad GROUP BY column: %v, want %s", err, want)
	}
	p2 := mustPlan(t, "SELECT MYUDF(Time) FROM Sessions", plan.Options{}, "MYUDF")
	if _, err := Run(context.Background(), p2, st, nil, Config{}); err == nil {
		t.Error("unregistered UDF accepted")
	}
	p3 := mustPlan(t, "SELECT AVG(nope) FROM Sessions", plan.Options{})
	if _, err := Run(context.Background(), p3, st, nil, Config{}); err == nil {
		t.Error("unknown aggregation column accepted")
	}
}

func TestRunPercentile(t *testing.T) {
	st := storedSessions(10000, 18)
	p := mustPlan(t, "SELECT PERCENTILE(Time, 0.5) FROM Sessions", plan.Options{})
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	times := st.Data.ColumnByName("Time").(table.Float64Col)
	want := stats.Quantile(times, 0.5)
	if math.Abs(res.Groups[0].Aggs[0].Value-want) > 1e-9 {
		t.Errorf("median = %v, want %v", res.Groups[0].Aggs[0].Value, want)
	}
}

func BenchmarkRunConsolidatedPipeline(b *testing.B) {
	st := storedSessions(100000, 20)
	opt := plan.DefaultOptions(100000)
	def, _ := plan.Analyze(sql.MustParse(
		"SELECT City, SUM(Time) FROM Sessions WHERE City = 'NYC' GROUP BY City").(*sql.Select), nil)
	p, _ := plan.Build(def, opt)
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if got := len(res.Groups[0].Aggs[0].Bootstrap); got != opt.BootstrapK {
		b.Fatalf("%d resamples, want %d", got, opt.BootstrapK)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), p, st, nil, Config{Workers: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBootstrapMatchesIndependentPoissonResamples holds the consolidated
// bootstrap to the §5.2 baseline it replaces: K independent Poissonized
// resamples of the filtered column, each evaluated as its own weighted query
// (what one UNION ALL subquery computed), form a distribution statistically
// equivalent to the one the single scan produces. Weights are drawn for the
// filtered rows only (§5.3.2). A group's SUM is the fixed-scale sum, whose
// bar is the bootstrap's.
func TestBootstrapMatchesIndependentPoissonResamples(t *testing.T) {
	st := storedSessions(10000, 32)
	const q, k = "SELECT City, SUM(Time) FROM Sessions WHERE City = 'NYC' GROUP BY City", 60
	res, err := Run(context.Background(), mustPlan(t, q, plan.Options{BootstrapK: k}),
		st, nil, Config{Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Groups[0].Aggs[0]
	consolidated := out.Bootstrap
	if want := int64(k) * res.Counters.RowsAfterFilter; res.Counters.WeightDraws != want {
		t.Errorf("weight draws = %d, want K × filtered rows = %d", res.Counters.WeightDraws, want)
	}

	resampleAnswers := make([]float64, k)
	for i := range resampleAnswers {
		w := resample.PoissonWeights(rng.New(uint64(100+i)), len(out.Values))
		resampleAnswers[i] = out.Query.EvalWeighted(out.Values, w)
	}

	mUnion, mCons := stats.Mean(resampleAnswers), stats.Mean(consolidated)
	seUnion, seCons := stddev(resampleAnswers), stddev(consolidated)
	if math.Abs(mUnion-mCons) > 4*(seUnion+seCons)/math.Sqrt(k) {
		t.Errorf("independent-resample mean %v vs consolidated %v", mUnion, mCons)
	}
	if r := seUnion / seCons; r < 0.6 || r > 1.7 {
		t.Errorf("bootstrap spread mismatch: independent %v vs consolidated %v", seUnion, seCons)
	}
}

// TestRunClosedFormFoldsOnce: an aggregate with a closed form gets its
// interval from the executor, and its Value is that interval's Center with
// the bits q.Eval gives; one without a closed form gets neither. A fold over
// no rows is Interval{NaN, NaN}, and Value is its NaN.
func TestRunClosedFormFoldsOnce(t *testing.T) {
	st := storedSessions(3000, 35)
	p := mustPlan(t, "SELECT AVG(Time), SUM(Time), COUNT(*), PERCENTILE(Time, 0.5) FROM Sessions WHERE City = 'NYC'",
		plan.Options{BootstrapK: 10})
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Groups[0].Aggs {
		want := math.Float64bits(out.Query.Eval(out.Values))
		if got := math.Float64bits(out.Value); got != want {
			t.Errorf("%s: Value bits %x, q.Eval gives %x", out.Spec.Alias, got, want)
		}
		if !out.Query.ClosedFormApplicable() {
			if out.ClosedForm != (estimator.Interval{}) {
				t.Errorf("%s: closed form %+v on an aggregate without one", out.Spec.Alias, out.ClosedForm)
			}
			continue
		}
		iv, err := (estimator.ClosedForm{}).Interval(nil, out.Values, out.Query, estimator.ConfidenceLevel)
		if err != nil || out.ClosedForm != iv || math.Float64bits(iv.Center) != want {
			t.Errorf("%s: closed form %+v; want %+v centered on Value", out.Spec.Alias, out.ClosedForm, iv)
		}
	}

	empty := mustPlan(t, "SELECT AVG(Time) FROM Sessions WHERE City = 'NOWHERE'", plan.Options{})
	res, err = Run(context.Background(), empty, st, nil, Config{Workers: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Groups[0].Aggs[0]; !math.IsNaN(out.Value) || !math.IsNaN(out.ClosedForm.Center) || !math.IsNaN(out.ClosedForm.HalfWidth) {
		t.Errorf("AVG over zero rows: Value %v, closed form %+v; want NaN and Interval{NaN, NaN}", out.Value, out.ClosedForm)
	}
}

func TestRunEmptyFilterResult(t *testing.T) {
	st := storedSessions(1000, 33)
	p := mustPlan(t, "SELECT AVG(Time) FROM Sessions WHERE City = 'NOWHERE'",
		plan.Options{BootstrapK: 10})
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Groups[0].Aggs[0].Value) {
		t.Errorf("AVG over zero rows = %v, want NaN", res.Groups[0].Aggs[0].Value)
	}
	if res.Counters.RowsAfterFilter != 0 {
		t.Errorf("rows after filter = %d", res.Counters.RowsAfterFilter)
	}
	// COUNT over zero matching rows is a well-defined 0 (masked column of
	// zeros, scaled).
	p2 := mustPlan(t, "SELECT COUNT(*) FROM Sessions WHERE City = 'NOWHERE'",
		plan.Options{})
	res2, err := Run(context.Background(), p2, st, nil, Config{Workers: 2, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Groups[0].Aggs[0].Value; got != 0 {
		t.Errorf("COUNT over zero rows = %v, want 0", got)
	}
}

func TestRunEmptyGroupByResult(t *testing.T) {
	st := storedSessions(1000, 34)
	p := mustPlan(t, "SELECT City, AVG(Time) FROM Sessions WHERE Time > 1e12 GROUP BY City",
		plan.Options{})
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 2, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Errorf("groups = %d, want 0 when nothing matches", len(res.Groups))
	}
}

// TestOperatorMatrix sweeps every arithmetic and comparison operator over
// numeric and string operands through the SQL surface.
func TestOperatorMatrix(t *testing.T) {
	tbl := table.MustNew(table.Schema{
		{Name: "a", Type: table.Float64},
		{Name: "b", Type: table.Float64},
		{Name: "s", Type: table.String},
	}, table.Float64Col{6, 2}, table.Float64Col{3, 3}, table.StringCol{"x", "y"})

	arith := []struct {
		expr string
		want []float64
	}{
		{"a + b", []float64{9, 5}},
		{"a - b", []float64{3, -1}},
		{"a * b", []float64{18, 6}},
		{"a / b", []float64{2, 2.0 / 3}},
		{"-a", []float64{-6, -2}},
	}
	for _, c := range arith {
		e := sql.MustParse("SELECT AVG(" + c.expr + ") FROM t").(*sql.Select).
			Items[0].Expr.(*sql.FuncCall).Args[0]
		got, err := evalNumeric(e, tbl, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("%s: row %d = %v, want %v", c.expr, i, got[i], c.want[i])
			}
		}
	}

	numCmp := []struct {
		pred string
		want []int // matching row indices
	}{
		{"a = 6", []int{0}},
		{"a != 6", []int{1}},
		{"a < 3", []int{1}},
		{"a <= 2", []int{1}},
		{"a > 3", []int{0}},
		{"a >= 6", []int{0}},
	}
	for _, c := range numCmp {
		pred := sql.MustParse("SELECT COUNT(*) FROM t WHERE " + c.pred).(*sql.Select).Where
		sel, err := EvalPredicate(pred, tbl)
		if err != nil {
			t.Fatalf("%s: %v", c.pred, err)
		}
		if len(sel) != len(c.want) {
			t.Errorf("%s: sel = %v, want %v", c.pred, sel, c.want)
			continue
		}
		for i := range c.want {
			if sel[i] != c.want[i] {
				t.Errorf("%s: sel = %v, want %v", c.pred, sel, c.want)
			}
		}
	}

	strCmp := []struct {
		pred string
		rows int
	}{
		{"s = 'x'", 1},
		{"s != 'x'", 1},
		{"s < 'y'", 1},
		{"s <= 'y'", 2},
		{"s > 'x'", 1},
		{"s >= 'x'", 2},
	}
	for _, c := range strCmp {
		pred := sql.MustParse("SELECT COUNT(*) FROM t WHERE " + c.pred).(*sql.Select).Where
		sel, err := EvalPredicate(pred, tbl)
		if err != nil {
			t.Fatalf("%s: %v", c.pred, err)
		}
		if len(sel) != c.rows {
			t.Errorf("%s: matched %d rows, want %d", c.pred, len(sel), c.rows)
		}
	}
}

func TestEvalExprErrorPaths(t *testing.T) {
	tbl := sessionsTable(10, 40)
	bad := []string{
		"SELECT COUNT(*) FROM t WHERE NOT Time",           // NOT non-boolean
		"SELECT COUNT(*) FROM t WHERE (Time > 1) + 2 > 0", // arithmetic on boolean
		"SELECT COUNT(*) FROM t WHERE City AND City",      // AND on strings
		"SELECT AVG(-City) FROM t",                        // negate string
	}
	for _, q := range bad {
		sel := sql.MustParse(q).(*sql.Select)
		var err error
		if sel.Where != nil {
			_, err = EvalPredicate(sel.Where, tbl)
		} else {
			_, err = evalNumeric(sel.Items[0].Expr.(*sql.FuncCall).Args[0], tbl, nil)
		}
		if err == nil {
			t.Errorf("%s: expected evaluation error", q)
		}
	}
}

func TestRunDiagnosticTooFewRows(t *testing.T) {
	st := storedSessions(6400, 41)
	opt := plan.DefaultOptions(6400) // the smallest sample Algorithm 1 diagnoses
	opt.BootstrapK = 10
	// Selectivity ~0: a filter matching almost nothing leaves too few rows
	// for any diagnostic ladder; the operator must report an explicit
	// rejection rather than failing.
	p := mustPlan(t, "SELECT AVG(Time) FROM Sessions WHERE Time > 1e9", opt)
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 2, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Groups[0].Aggs[0].Diag
	if d == nil {
		t.Fatal("diagnostic result missing")
	}
	if d.OK {
		t.Error("diagnostic accepted with no usable rows")
	}
	if d.Reason == "" {
		t.Error("rejection must carry a reason")
	}
}

// resultsEqual asserts two Results are bit-identical in everything a query
// answer is built from: group keys, values, resample estimates and
// diagnostic verdicts.
func resultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (got=%v want=%v)", label, got == nil, want == nil)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want.Groups))
	}
	if got.SampleRows != want.SampleRows {
		t.Errorf("%s: sample rows %d != %d", label, got.SampleRows, want.SampleRows)
	}
	for gi := range want.Groups {
		g, w := got.Groups[gi], want.Groups[gi]
		if g.Key != w.Key {
			t.Fatalf("%s: group %d key %q != %q", label, gi, g.Key, w.Key)
		}
		if len(g.Aggs) != len(w.Aggs) {
			t.Fatalf("%s: group %q has %d aggs, want %d", label, g.Key, len(g.Aggs), len(w.Aggs))
		}
		for ai := range w.Aggs {
			a, b := g.Aggs[ai], w.Aggs[ai]
			if a.Value != b.Value {
				t.Errorf("%s: group %q agg %d value %v != %v", label, g.Key, ai, a.Value, b.Value)
			}
			if len(a.Bootstrap) != len(b.Bootstrap) {
				t.Fatalf("%s: group %q agg %d has %d resamples, want %d",
					label, g.Key, ai, len(a.Bootstrap), len(b.Bootstrap))
			}
			for k := range b.Bootstrap {
				if a.Bootstrap[k] != b.Bootstrap[k] {
					t.Fatalf("%s: group %q agg %d resample %d: %v != %v",
						label, g.Key, ai, k, a.Bootstrap[k], b.Bootstrap[k])
				}
			}
			if (a.Diag == nil) != (b.Diag == nil) {
				t.Fatalf("%s: group %q agg %d diagnostic presence differs", label, g.Key, ai)
			}
			if a.Diag != nil && (a.Diag.OK != b.Diag.OK || a.Diag.Reason != b.Diag.Reason) {
				t.Errorf("%s: group %q agg %d diagnostic %+v != %+v",
					label, g.Key, ai, a.Diag, b.Diag)
			}
		}
	}
}
