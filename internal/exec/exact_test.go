package exec

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/estimator"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sql"
	"repro/internal/table"
	"repro/internal/workload"
)

// exactCorpus is the differential test's table: five full blocks and a
// short sixth; an ascending day column zone maps can skip on; a float column
// seeded with NaN, ±Inf and -0; string, int64 (beyond 2^53) and float64
// (NaN and -0 included) GROUP BY keys; and one city that owns a single row.
func exactCorpus() *table.Table {
	n := 5*table.BlockRows + 317
	src := rng.New(97)
	x := make(table.Float64Col, n)
	y := make(table.Float64Col, n)
	day := make(table.Int64Col, n)
	city := make(table.StringCol, n)
	big := make(table.Int64Col, n)
	fkey := make(table.Float64Col, n)
	names := []string{"NYC", "SF", "LA", "CHI"}
	fkeys := []float64{1.5, math.NaN(), math.Copysign(0, -1), 0, 1e-320}
	for i := 0; i < n; i++ {
		y[i] = 60 + 20*src.NormFloat64()
		x[i] = y[i]
		switch src.Intn(50) {
		case 0:
			x[i] = math.NaN()
		case 1:
			x[i] = math.Inf(1)
		case 2:
			x[i] = math.Inf(-1)
		case 3:
			x[i] = math.Copysign(0, -1)
		}
		day[i] = int64(i / 512)
		city[i] = names[src.Intn(len(names))]
		big[i] = 1<<60 + int64(src.Intn(3))
		fkey[i] = fkeys[src.Intn(len(fkeys))]
	}
	city[3000] = "SOLO"
	return table.MustNew(table.Schema{
		{Name: "x", Type: table.Float64}, {Name: "y", Type: table.Float64},
		{Name: "day", Type: table.Int64}, {Name: "city", Type: table.String},
		{Name: "big", Type: table.Int64}, {Name: "fkey", Type: table.Float64},
	}, x, y, day, city, big, fkey)
}

var exactUDFs = Registry{"SPREAD": func(values, weights []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range values {
		if weights != nil && weights[i] == 0 {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return hi - lo
}}

const exactAlgebraic = "AVG(y), SUM(y), COUNT(*), MIN(y), MAX(y), VARIANCE(y), STDEV(y)"

var exactQueries = []string{
	"SELECT " + exactAlgebraic + " FROM T",
	"SELECT " + exactAlgebraic + " FROM T WHERE day >= 2 AND day < 5",
	"SELECT " + exactAlgebraic + " FROM T WHERE day > 1000",                    // every block zone-skipped
	"SELECT " + exactAlgebraic + ", PERCENTILE(y, 0.5) FROM T WHERE y > 1e300", // empty, nothing skipped
	"SELECT city, " + exactAlgebraic + " FROM T WHERE y > 1e300 GROUP BY city",
	"SELECT SUM(x), AVG(x), MIN(x), MAX(x), STDEV(x), PERCENTILE(x, 0.9) FROM T",
	"SELECT city, SUM(x), AVG(x), MIN(x), MAX(x), COUNT(x) FROM T WHERE day < 9 GROUP BY city",
	"SELECT city, AVG(y), PERCENTILE(y, 0.5), SPREAD(y), SUM(y * 2 + day), PERCENTILE(y, 0.99) FROM T GROUP BY city",
	"SELECT AVG(y), SPREAD(x), PERCENTILE(y / 3, 0.25), COUNT(city) FROM T WHERE city != 'SF' AND y < 80",
	"SELECT big, " + exactAlgebraic + " FROM T WHERE city = 'LA' GROUP BY big",
	"SELECT fkey, AVG(y), COUNT(*), MAX(x) FROM T GROUP BY fkey",
	"SELECT day, SUM(day), AVG(y), MIN(day + y) FROM T WHERE day >= 1 AND day != 4 GROUP BY day",
	"SELECT city, COUNT(*) FROM T WHERE city = 'SOLO' GROUP BY city",
	"SELECT AVG(3), SUM(2), COUNT(*) FROM T WHERE day = 7",
}

var exactBadQueries = []string{
	"SELECT AVG(y) FROM T WHERE nosuch > 1",
	"SELECT AVG(y) FROM T WHERE y",
	"SELECT AVG(y) FROM T WHERE city > 3",
	"SELECT SUM(nosuch) FROM T WHERE day > 1000",
	"SELECT COUNT(nosuch) FROM T",
	"SELECT AVG(city) FROM T",
	"SELECT city, AVG(y + city) FROM T GROUP BY city",
	"SELECT AVG(y) FROM T GROUP BY nosuch",
}

// referenceExact answers p the plain way: one selection vector, one value
// column per aggregate, one index list per group, Query.Eval over each.
func referenceExact(p *plan.Plan, tbl *table.Table, udfs Registry) ([]GroupOutput, error) {
	def := p.Def
	var sel []int
	if def.Where != nil {
		var err error
		if sel, err = EvalPredicate(def.Where, tbl); err != nil {
			return nil, err
		}
	} else {
		sel = make([]int, tbl.NumRows())
		for i := range sel {
			sel[i] = i
		}
	}
	cols := make([][]float64, len(def.Aggs))
	for ai, spec := range def.Aggs {
		if spec.Kind == estimator.Count { // one per row, whatever (resolvable) thing is counted
			var err error
			sql.EachColumn(spec.Input, func(c string) {
				if err == nil && tbl.ColumnByName(c) == nil {
					err = errors.New("unknown column " + c)
				}
			})
			if err != nil {
				return nil, err
			}
			cols[ai] = make([]float64, len(sel))
			for i := range cols[ai] {
				cols[ai][i] = 1
			}
			continue
		}
		var err error
		if cols[ai], err = evalNumeric(spec.Input, tbl, sel); err != nil {
			return nil, err
		}
	}
	grouped := len(def.GroupBy) > 0
	byKey := map[string][]int{"": nil}
	if grouped {
		delete(byKey, "")
		col := tbl.ColumnByName(def.GroupBy[0])
		if col == nil {
			return nil, errors.New("unknown GROUP BY column")
		}
		for pos, row := range sel {
			var k string
			switch c := col.(type) {
			case table.StringCol:
				k = c[row]
			case table.Int64Col:
				k = strconv.FormatInt(c[row], 10)
			case table.Float64Col:
				k = strconv.FormatFloat(c[row], 'g', -1, 64)
			}
			byKey[k] = append(byKey[k], pos)
		}
	} else {
		for pos := range sel {
			byKey[""] = append(byKey[""], pos)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []GroupOutput
	for _, k := range keys {
		g := GroupOutput{Key: k}
		for ai, spec := range def.Aggs {
			vals := make([]float64, len(byKey[k]))
			for j, pos := range byKey[k] {
				vals[j] = cols[ai][pos]
			}
			q := estimator.Query{Kind: spec.Kind, Pct: spec.Pct, Fn: udfs[spec.UDFName]}
			v := q.Eval(vals)
			if len(vals) == 0 && tbl.NumRows() > 0 &&
				(spec.Kind == estimator.Sum || spec.Kind == estimator.Count) {
				v = 0 // the sum of nothing, as SQL engines without NULL answer it
			}
			g.Aggs = append(g.Aggs, AggOutput{Spec: spec, Value: v})
		}
		out = append(out, g)
	}
	return out, nil
}

// materializedExact answers p through the vector pipeline approximate plans
// use (scanFilterProject's groups) — what exact plans ran on before
// the streamed operator.
func materializedExact(t *testing.T, p *plan.Plan, st *StoredTable, udfs Registry) []GroupOutput {
	t.Helper()
	def := p.Def
	base, err := scanFilterProject(context.Background(), def, 0, st.Data, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := queriesFor(def, st, udfs)
	if err != nil {
		t.Fatal(err)
	}
	var out []GroupOutput
	for _, g := range base.groups {
		gout := GroupOutput{Key: g.key}
		for ai, spec := range def.Aggs {
			gout.Aggs = append(gout.Aggs, AggOutput{Spec: spec, Value: queries[ai].Eval(g.values[ai])})
		}
		out = append(out, gout)
	}
	return out
}

func groupsBitEqual(t *testing.T, label string, got, want []GroupOutput) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for gi := range want {
		if got[gi].Key != want[gi].Key {
			t.Fatalf("%s: group %d key %q, want %q", label, gi, got[gi].Key, want[gi].Key)
		}
		for ai := range want[gi].Aggs {
			g, w := got[gi].Aggs[ai].Value, want[gi].Aggs[ai].Value
			// NaN is compared as NaN: when two different NaNs meet in an
			// addition (Inf-Inf's, then a stored one) the payload that
			// survives depends on the operand order the compiler picked
			// for that loop, which Go does not specify.
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Errorf("%s: group %q %s = %v (%#x), want %v (%#x)", label, want[gi].Key,
					want[gi].Aggs[ai].Spec.Label(), g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// TestExactOperatorDifferential pins the streamed exact operator to a plain
// reference bit for bit — over every backing, with and without a block
// cache, at several worker counts — and to the materializing pipeline it
// replaced on this path.
func TestExactOperatorDifferential(t *testing.T) {
	raw := exactCorpus()
	variants := backingVariants(t, raw)
	for _, q := range exactQueries {
		p := mustPlan(t, q, plan.Options{}, "SPREAD")
		want, err := referenceExact(p, raw, exactUDFs)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		groupsBitEqual(t, "materialized: "+q,
			materializedExact(t, p, &StoredTable{Data: raw}, exactUDFs), want)
		for name, data := range variants {
			for _, cached := range []bool{false, true} {
				for _, workers := range []int{1, 2, 8} {
					cfg := Config{Workers: workers, Seed: 5}
					if cached {
						cfg.Blocks = cache.NewBlockCache(cache.BlockConfig{Bytes: 1 << 20})
					}
					st := &StoredTable{Data: data}
					for pass := 0; pass < 2; pass++ { // second pass reads a warm cache
						got, err := Run(context.Background(), p, st, exactUDFs, cfg)
						if err != nil {
							t.Fatalf("%s cached=%v workers=%d %q: %v", name, cached, workers, q, err)
						}
						groupsBitEqual(t, name+": "+q, got.Groups, want)
						if got.Groups != nil && got.Groups[0].Aggs[0].Values != nil {
							t.Fatalf("%s %q: exact plan materialized a value column", name, q)
						}
					}
				}
			}
		}
	}
	for _, q := range exactBadQueries {
		p := mustPlan(t, q, plan.Options{})
		if _, err := referenceExact(p, raw, nil); err == nil {
			t.Fatalf("reference accepted %q", q)
		}
		for name, data := range variants {
			st := &StoredTable{Data: data}
			if _, err := Run(context.Background(), p, st, nil, Config{Workers: 2}); err == nil {
				t.Errorf("%s: %q accepted", name, q)
			}
		}
	}
}

// TestExactOperatorCounters pins the operator's accounting: the logical
// counters are what the materializing scan reports for the same plan, and
// on lazy backings every referenced column — the GROUP BY key included,
// which the old cursor path never metered — is decoded exactly once per
// block it is needed in, even when predicate, input and key all name it.
func TestExactOperatorCounters(t *testing.T) {
	raw := exactCorpus()
	variants := backingVariants(t, raw)
	blocks := int64((raw.NumRows() + table.BlockRows - 1) / table.BlockRows)
	cases := []struct {
		q string
		// admitted blocks decode predCols columns each, except the covered
		// ones, on which the predicate is not evaluated; blocks with a
		// surviving row decode restCols more.
		predCols, restCols     int64
		admitted, covered, hit int64
	}{
		// day/512: blocks hold two days each; day>=4 admits blocks 2.. (4),
		// and holds on every row of each: no predicate decode.
		{"SELECT city, AVG(y), MIN(y) FROM T WHERE day >= 4 GROUP BY city", 1, 2, blocks - 2, blocks - 2, blocks - 2},
		// one int64 column is predicate, input and key: one decode per block,
		// covered or not, for key and input.
		{"SELECT day, SUM(day), MAX(day * 2) FROM T WHERE day >= 4 GROUP BY day", 1, 0, blocks - 2, 0, blocks - 2},
		// key shared with an input only: decoded with the inputs.
		{"SELECT day, SUM(day), AVG(y) FROM T GROUP BY day", 0, 2, blocks, 0, blocks},
		// admitted everywhere (no range), surviving nowhere: predicate column only.
		{"SELECT city, AVG(x) FROM T WHERE y != y GROUP BY city", 1, 2, blocks, 0, 0},
		// y's blocks are not integral, so its envelopes cannot rule out a
		// NaN: no block is covered.
		{"SELECT AVG(y), PERCENTILE(y, 0.5), COUNT(*) FROM T WHERE y > 60", 1, 0, blocks, 0, blocks},
	}
	for _, tc := range cases {
		p := mustPlan(t, tc.q, plan.Options{})
		def := p.Def
		old, err := scanFilterProject(context.Background(), def, 0, raw, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range variants {
			for _, workers := range []int{1, 3} {
				res, err := Run(context.Background(), p, &StoredTable{Data: data},
					nil, Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				c, w := res.Counters, old.counters
				if c.RowsScanned != w.RowsScanned || c.BytesScanned != w.BytesScanned ||
					c.RowsAfterFilter != w.RowsAfterFilter || c.BlocksSkipped != w.BlocksSkipped ||
					c.Scans != 1 || c.Subqueries != 1 {
					t.Errorf("%s workers=%d %q: counters %+v, materializing scan %+v", name, workers, tc.q, c, w)
				}
				wantDecoded := tc.predCols*(tc.admitted-tc.covered) + tc.restCols*tc.hit
				if name == "raw" {
					wantDecoded = 0
				}
				if c.BlocksDecoded != wantDecoded {
					t.Errorf("%s workers=%d %q: %d blocks decoded, want %d", name, workers, tc.q,
						c.BlocksDecoded, wantDecoded)
				}
			}
		}
	}
}

// decodeCountCtx is cancelled from the moment the process-wide decode
// counter reaches cancelAt: a cancellation that lands mid-scan at a known
// block, observed whenever the scan next asks.
type decodeCountCtx struct {
	context.Context
	cancelAt int64
}

func (c decodeCountCtx) Err() error {
	if table.DecodedBlocks() >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestExactOperatorScratchDiscipline: success, evaluation error and
// mid-scan cancellation all hand every pooled buffer back, and a cancelled
// scan stops within 64 blocks with an error wrapping ctx.Err().
func TestExactOperatorScratchDiscipline(t *testing.T) {
	comp := table.Compress(clusteredSessions(200*table.BlockRows, 29))
	st := &StoredTable{Data: comp}
	base := PoolOutstanding()
	check := func(label string) {
		t.Helper()
		if d := PoolOutstanding() - base; d != 0 {
			t.Fatalf("%s: %d pooled buffers outstanding", label, d)
		}
	}
	ok := mustPlan(t, "SELECT City, AVG(Time), PERCENTILE(Time, 0.5) FROM Sessions WHERE City != 'SF' GROUP BY City", plan.Options{})
	if _, err := Run(context.Background(), ok, st, nil, Config{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	check("success")
	bad := mustPlan(t, "SELECT AVG(Time + City) FROM Sessions WHERE Time > 0", plan.Options{})
	if _, err := Run(context.Background(), bad, st, nil, Config{Workers: 4}); err == nil {
		t.Fatal("string arithmetic accepted")
	}
	check("evaluation error")

	// The plan's counting walk decodes one column per block, its folding walk
	// two; cancel forty decodes in, inside the counting walk.
	before := table.DecodedBlocks()
	ctx := decodeCountCtx{Context: context.Background(), cancelAt: before + 2*20}
	if _, err := Run(ctx, ok, st, nil, Config{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v", err)
	}
	if after := (table.DecodedBlocks() - ctx.cancelAt) / 2; after > 64 {
		t.Errorf("scan ran %d blocks past its cancellation, want <= 64", after)
	}
	check("cancellation")
}

// TestExactGroupedAllocationsDoNotScaleWithRows is the O(groups) claim as a
// unit test: one grouped algebraic exact query allocates about the same on
// a table four times the size.
func TestExactGroupedAllocationsDoNotScaleWithRows(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := mustPlan(t, "SELECT City, AVG(Time), MIN(Time), COUNT(*) FROM Sessions WHERE Time > 30 GROUP BY City", plan.Options{})
	bytesFor := func(rows int) float64 {
		comp := table.Compress(sessionsTable(rows, 7))
		st := &StoredTable{Data: comp}
		run := func() {
			if _, err := Run(context.Background(), p, st, nil, Config{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const reps = 5
		for i := 0; i < reps; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / reps
	}
	small, large := bytesFor(64<<10), bytesFor(256<<10)
	t.Logf("bytes allocated per query: %.0f at 64k rows, %.0f at 256k rows", small, large)
	if large/small >= 1.5 {
		t.Errorf("allocation grew %.2fx with 4x the rows (%.0f -> %.0f bytes): not O(groups)",
			large/small, small, large)
	}
}

// TestExactHolisticSinkSizedOnce: an ungrouped PERCENTILE, and a UDF that
// reads the offered order, over 256k rows each allocate their value vector
// once — not the ~5× of growing it by append — and the UDF adds only the
// order, not copies of the vector.
func TestExactHolisticSinkSizedOnce(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows = 256 << 10
	st := &StoredTable{Data: table.Compress(sessionsTable(rows, 7))}
	udfs := Registry{"FRAC_ABOVE_MEDIAN_X2": workload.UDFByName("frac_above_median_x2").Fn}
	vector, order := float64(rows*8), float64(rows*4)
	for _, c := range []struct {
		q      string
		budget float64
	}{
		{"SELECT PERCENTILE(Time, 0.5) FROM Sessions", 1.1 * vector},
		{"SELECT frac_above_median_x2(Time) FROM Sessions", 1.1*vector + order},
	} {
		p := mustPlan(t, c.q, plan.Options{}, "FRAC_ABOVE_MEDIAN_X2")
		run := func() {
			if _, err := Run(context.Background(), p, st, udfs, Config{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const reps = 3
		for i := 0; i < reps; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / reps
		t.Logf("%s: %.0f bytes allocated per query (budget %.0f)", c.q, got, c.budget)
		if got > c.budget {
			t.Errorf("%s allocated %.0f bytes per query, over %.0f", c.q, got, c.budget)
		}
	}
}

// TestExactGroupedHolisticAllocatesOnce: a grouped PERCENTILE over 256k
// rows sizes each group's vector once, from a counting walk over predicate
// and key, instead of growing it by append — within 1.25× of the final
// vectors plus 64 KiB. The counting walk's decodes are metered.
func TestExactGroupedHolisticAllocatesOnce(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows = 256 << 10
	st := &StoredTable{Data: table.Compress(sessionsTable(rows, 7))}
	p := mustPlan(t, "SELECT City, PERCENTILE(Time, 0.5) FROM Sessions WHERE user < 900 GROUP BY City", plan.Options{})
	var res *Result
	run := func() {
		var err error
		if res, err = Run(context.Background(), p, st, nil, Config{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const reps = 3
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / reps
	vectors := 8 * float64(res.Counters.RowsAfterFilter)
	budget := 1.25*vectors + 64<<10
	t.Logf("%.0f bytes allocated per query (vectors %.0f, budget %.0f)", got, vectors, budget)
	if got > budget {
		t.Errorf("allocated %.0f bytes per query, over %.0f", got, budget)
	}
	// Predicate and key columns in all 256 blocks, twice; Time in all once.
	if want := int64(2*2*256 + 256); res.Counters.BlocksDecoded != want {
		t.Errorf("%d blocks decoded, want %d", res.Counters.BlocksDecoded, want)
	}
}

// TestExactPercentileOwnsItsVector covers the in-place sort of a holistic
// sink: several percentiles over one input share one sorted vector, and an
// input a UDF also reads is left in row order for it — ROWSUM folds its
// values left to right, so a sorted vector would change its bits.
func TestExactPercentileOwnsItsVector(t *testing.T) {
	raw := exactCorpus()
	udfs := Registry{"ROWSUM": func(values, _ []float64) float64 {
		sum := 0.0
		for i, v := range values {
			sum += v / float64(i+1)
		}
		return sum
	}}
	for _, q := range []string{
		"SELECT PERCENTILE(y, 0.9), PERCENTILE(y, 0.1), PERCENTILE(y, 0.5) FROM T",
		"SELECT PERCENTILE(y, 0.9), ROWSUM(y), PERCENTILE(y, 0.1), PERCENTILE(x, 0.5), PERCENTILE(x, 0.25) FROM T WHERE day < 9",
		"SELECT city, PERCENTILE(y, 0.75), ROWSUM(y), PERCENTILE(y, 0.25), PERCENTILE(y * 2, 0.5), PERCENTILE(y * 2, 0.99) FROM T GROUP BY city",
	} {
		p := mustPlan(t, q, plan.Options{}, "ROWSUM")
		want, err := referenceExact(p, raw, udfs)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		for name, data := range backingVariants(t, raw) {
			got, err := Run(context.Background(), p, &StoredTable{Data: data}, udfs, Config{})
			if err != nil {
				t.Fatalf("%s %q: %v", name, q, err)
			}
			groupsBitEqual(t, name+": "+q, got.Groups, want)
		}
	}
}

// TestExactOperatorReadsPastBlockCache: an exact plan over a lazy table
// decodes into its own scratch and leaves an attached block cache untouched —
// no lookups, no residents — with the counters of a cache-less run.
func TestExactOperatorReadsPastBlockCache(t *testing.T) {
	raw := exactCorpus()
	for name, data := range backingVariants(t, raw) {
		if name == "raw" {
			continue
		}
		st := &StoredTable{Data: data}
		for _, q := range []string{
			"SELECT big, AVG(y), PERCENTILE(x, 0.5) FROM T WHERE day >= 2 AND big > 0 GROUP BY big",
			"SELECT city, SUM(y), COUNT(*) FROM T WHERE city != 'SF' GROUP BY city",
		} {
			p := mustPlan(t, q, plan.Options{})
			plain, err := Run(context.Background(), p, st, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Blocks: cache.NewBlockCache(cache.BlockConfig{Bytes: 1 << 20})}
			for pass := 0; pass < 2; pass++ {
				got, err := Run(context.Background(), p, st, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				groupsBitEqual(t, name+": "+q, got.Groups, plain.Groups)
				got.Counters.DecodeNanos, plain.Counters.DecodeNanos = 0, 0
				if got.Counters != plain.Counters {
					t.Errorf("%s %q pass %d: counters %+v, want the cache-less %+v",
						name, q, pass, got.Counters, plain.Counters)
				}
			}
			if st := cfg.Blocks.Stats(); st.Hits+st.Misses != 0 || st.Entries != 0 || st.Bytes != 0 {
				t.Errorf("%s %q: exact scan touched the block cache: %+v", name, q, st)
			}
		}
	}
}
