package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/estimator"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sql"
	"repro/internal/table"
)

// referenceScan is the sample scan done the plain way: one selection vector
// from EvalPredicate, one column per aggregate from evalNumeric (an
// ungrouped SUM/COUNT scattered over a zero column of every row), and a map
// from rendered key to row positions for GROUP BY. It returns the groups
// and the selection.
func referenceScan(def *plan.QueryDef, tbl *table.Table) ([]group, []int, error) {
	sel := make([]int, tbl.NumRows())
	for i := range sel {
		sel[i] = i
	}
	if def.Where != nil {
		var err error
		if sel, err = EvalPredicate(def.Where, tbl); err != nil {
			return nil, nil, err
		}
	}
	grouped := len(def.GroupBy) > 0
	cols := make([][]float64, len(def.Aggs))
	for ai, spec := range def.Aggs {
		var vals []float64
		if spec.Kind == estimator.Count {
			var err error
			sql.EachColumn(spec.Input, func(c string) {
				if err == nil && tbl.ColumnByName(c) == nil {
					err = errors.New("unknown column " + c)
				}
			})
			if err != nil {
				return nil, nil, err
			}
			vals = make([]float64, len(sel))
			for i := range vals {
				vals[i] = 1
			}
		} else {
			var err error
			if vals, err = evalNumeric(spec.Input, tbl, sel); err != nil {
				return nil, nil, err
			}
		}
		if !grouped && (spec.Kind == estimator.Sum || spec.Kind == estimator.Count) {
			full := make([]float64, tbl.NumRows())
			for j, r := range sel {
				full[r] = vals[j]
			}
			vals = full
		}
		cols[ai] = vals
	}
	if !grouped {
		return []group{{values: cols}}, sel, nil
	}
	col := tbl.ColumnByName(def.GroupBy[0])
	if col == nil {
		return nil, nil, errors.New("unknown GROUP BY column")
	}
	byKey := map[string][]int{}
	for pos, r := range sel {
		var k string
		switch c := col.(type) {
		case table.StringCol:
			k = c[r]
		case table.Int64Col:
			k = strconv.FormatInt(c[r], 10)
		case table.Float64Col:
			k = strconv.FormatFloat(c[r], 'g', -1, 64)
		}
		byKey[k] = append(byKey[k], pos)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []group
	for _, k := range keys {
		g := group{key: k, values: make([][]float64, len(cols))}
		for ai, c := range cols {
			for _, pos := range byKey[k] {
				g.values[ai] = append(g.values[ai], c[pos])
			}
		}
		out = append(out, g)
	}
	return out, sel, nil
}

// scanWheres covers every way a filter meets the blocks: no WHERE, a
// selective one some blocks are zone-skipped for, one survivor (every other
// admitted block holds none), every block skipped, and nothing skipped with
// nothing surviving.
var scanWheres = []string{
	"",
	" WHERE day >= 2 AND day < 5 AND city != 'SF'",
	" WHERE city = 'SOLO'",
	" WHERE day > 1000",
	" WHERE y > 1e300",
}

// sampleScanQueries crosses scanWheres with an ungrouped query — masked
// SUM/COUNT over a column, arithmetic and a literal, filtered columns — and
// queries grouped on a string, an int64 (beyond 2^53) and a float64 key
// (NaN, -0 and a subnormal among its values) reading the indicator, a
// literal and arithmetic.
func sampleScanQueries() []string {
	var qs []string
	for _, w := range scanWheres {
		qs = append(qs, "SELECT SUM(x), COUNT(*), SUM(y * 2 + day), SUM(3), AVG(x), MIN(big), AVG(3), AVG(y / 3 - day), MAX(fkey) FROM T"+w)
		for _, key := range []string{"city", "big", "fkey"} {
			qs = append(qs, "SELECT "+key+", SUM(x), COUNT(*), AVG(y / 3 - day), SUM(2), MIN(big), MAX(fkey) FROM T"+w+" GROUP BY "+key)
		}
	}
	return qs
}

// columnRefs counts the column references evaluating e reads: each decodes
// its column once per block it is evaluated over.
func columnRefs(e sql.Expr) int64 {
	switch v := e.(type) {
	case *sql.ColumnRef:
		return 1
	case *sql.Binary:
		return columnRefs(v.L) + columnRefs(v.R)
	case *sql.Unary:
		return columnRefs(v.E)
	}
	return 0
}

// blockReads counts the block reads evaluating e over blocks performs, and
// how many of them land on a block whose codec the block cache turns away
// (raw and constant numbers, dictionary strings): a warm cache serves every
// read but those, which decode again.
func blockReads(e sql.Expr, tbl *table.Table, blocks []int) (reads, uncacheable int64) {
	switch v := e.(type) {
	case *sql.ColumnRef:
		base := table.BlockBase(tbl.Column(tbl.Schema().Index(v.Name)))
		for _, b := range blocks {
			reads++
			if !table.CacheableBlock(base, b) {
				uncacheable++
			}
		}
	case *sql.Binary:
		lr, lu := blockReads(v.L, tbl, blocks)
		rr, ru := blockReads(v.R, tbl, blocks)
		reads, uncacheable = lr+rr, lu+ru
	case *sql.Unary:
		reads, uncacheable = blockReads(v.E, tbl, blocks)
	}
	return reads, uncacheable
}

// decodeBounds returns the blocks a query's scan decodes on a lazy
// backing — predicate columns in every admitted block, inputs and the
// GROUP BY key in every block with a survivor — how many of those reads a
// warm block cache still decodes, and what the materializing scan before it
// decoded, which read a masked input in every block of the table. A string
// or float64 key is gathered like any column reference, so the cache serves
// it where it admits the block; an int64 key is read natively, past the
// cache, and decodes every time.
func decodeBounds(def *plan.QueryDef, tbl *table.Table, sel []int) (want, uncacheable, parent int64) {
	nb := (tbl.NumRows() + table.ZoneBlockRows - 1) / table.ZoneBlockRows
	var withSurvivor []int
	for _, r := range sel {
		if b := r / table.ZoneBlockRows; len(withSurvivor) == 0 || withSurvivor[len(withSurvivor)-1] != b {
			withSurvivor = append(withSurvivor, b)
		}
	}
	if def.Where != nil {
		skip, _, _ := zoneSkip(tbl, def.Where, predRanges(def.Where))
		var admitted []int
		for b := 0; b < nb; b++ {
			if b >= len(skip) || !skip[b] {
				admitted = append(admitted, b)
			}
		}
		want, uncacheable = blockReads(def.Where, tbl, admitted)
		parent = want
	}
	grouped := len(def.GroupBy) > 0
	seen := map[string]bool{}
	for _, spec := range def.Aggs {
		in := aggInput(spec)
		masked := !grouped && (spec.Kind == estimator.Sum || spec.Kind == estimator.Count)
		key := fmt.Sprint(masked, in)
		if in == nil || seen[key] {
			continue
		}
		seen[key] = true
		reads, u := blockReads(in, tbl, withSurvivor)
		want += reads
		uncacheable += u
		if masked {
			parent += columnRefs(in) * int64(nb)
		} else {
			parent += reads
		}
	}
	if grouped {
		key := &sql.ColumnRef{Name: def.GroupBy[0]}
		reads, u := blockReads(key, tbl, withSurvivor)
		if tbl.ColumnByName(key.Name).Type() == table.Int64 {
			u = reads
		}
		want += reads
		uncacheable += u
		parent += reads // it keyed the same blocks, unmetered
	}
	return want, uncacheable, parent
}

// TestBlockRangesCoverAllRowsInOrder: the sample scan's range split covers
// [0, n) in k ascending ranges whose bounds are block multiples or n, the
// trailing ones empty when the table has fewer blocks than k.
func TestBlockRangesCoverAllRowsInOrder(t *testing.T) {
	for _, n := range []int{0, 1, table.ZoneBlockRows, 2*table.ZoneBlockRows + 10, 5 * table.ZoneBlockRows} {
		nb := (n + table.ZoneBlockRows - 1) / table.ZoneBlockRows
		for k := 1; k <= 7; k++ {
			bounds := blockRanges(n, k)
			if len(bounds) != k+1 || bounds[0] != 0 || bounds[k] != n {
				t.Fatalf("n=%d k=%d: bounds %v", n, k, bounds)
			}
			for i := 0; i < k; i++ {
				lo, hi := bounds[i], bounds[i+1]
				if lo > hi || hi != n && hi%table.ZoneBlockRows != 0 {
					t.Fatalf("n=%d k=%d: range %d is [%d, %d)", n, k, i, lo, hi)
				}
				if empty := lo == hi; empty != (i >= nb) {
					t.Fatalf("n=%d k=%d: range %d empty %v with %d blocks", n, k, i, empty, nb)
				}
			}
		}
	}
}

// scanMatches compares one query's scan with the reference: the same
// groups in the same order, every vector Float64bits-equal.
func scanMatches(t *testing.T, label string, got *scanResult, want []group, sel []int) {
	t.Helper()
	if got.counters.RowsAfterFilter != int64(len(sel)) {
		t.Fatalf("%s: %d rows survive, want %d", label, got.counters.RowsAfterFilter, len(sel))
	}
	groups := got.groups
	if len(groups) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(groups), len(want))
	}
	for gi, w := range want {
		g := groups[gi]
		if g.key != w.key {
			t.Fatalf("%s: group %d is %q, want %q", label, gi, g.key, w.key)
		}
		for ai := range w.values {
			if len(g.values[ai]) != len(w.values[ai]) {
				t.Fatalf("%s: group %q agg %d has %d values, want %d", label, g.key, ai,
					len(g.values[ai]), len(w.values[ai]))
			}
			for j, v := range w.values[ai] {
				if math.Float64bits(g.values[ai][j]) != math.Float64bits(v) {
					t.Fatalf("%s: group %q agg %d value %d = %v, want %v", label, g.key, ai, j,
						g.values[ai][j], v)
				}
			}
		}
	}
}

// TestSampleScanDifferential pins the two-phase sample scan and the
// count-then-fill split to a plain reference over raw/compressed/mmap
// backings × block cache on/off × Workers 1/2/8: the same
// vectors to the bit, the same group order, and the same counters, with
// BlocksDecoded exactly "predicate columns in admitted blocks, inputs in
// blocks with a survivor" — never more than the scan before it — and every
// cached read either a hit or a decode: on a warm cache, a decode exactly
// when the block's codec is one the cache turns away. Type errors fail the
// query even when no row survives, and pooled scratch, selections and group
// ids come back after success, error, a cancellation in either phase, and a
// partition cancelled in phase 1 after the other has finished it.
func TestSampleScanDifferential(t *testing.T) {
	ctx := context.Background()
	raw := exactCorpus()
	variants := backingVariants(t, raw)
	qs := sampleScanQueries()
	defs := make([]*plan.QueryDef, len(qs))
	wants := make([][]group, len(qs))
	sels := make([][]int, len(qs))
	for i, q := range qs {
		defs[i] = mustPlan(t, q, plan.Options{}).Def
		var err error
		if wants[i], sels[i], err = referenceScan(defs[i], raw); err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
	}
	pooled := PoolOutstanding()
	var warmDecodes, warmHits int64
	for name, data := range variants {
		for _, workers := range []int{1, 2, 8} {
			uncached := make([]Counters, len(qs))
			for _, cached := range []bool{false, true} {
				cfg, passes := Config{Workers: workers}, 1
				if cached {
					cfg.Blocks = cache.NewBlockCache(cache.BlockConfig{Bytes: 1 << 20})
					passes = 2 // the second reads a warm cache
				}
				for pass := 0; pass < passes; pass++ {
					for i, def := range defs {
						label := fmt.Sprintf("%s workers=%d cached=%v pass=%d %q", name, workers, cached, pass, qs[i])
						res, err := scanFilterProject(ctx, def, 0, data, cfg)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						scanMatches(t, label, res, wants[i], sels[i])
						c := res.counters
						var skipped int64
						if def.Where != nil {
							_, _, skipped = zoneSkip(data, def.Where, predRanges(def.Where))
						}
						if c.Subqueries != 1 || c.Scans != 1 || c.Tasks != workers ||
							c.RowsScanned != int64(data.NumRows()) || c.BytesScanned != data.SizeBytes() ||
							c.RowsAfterFilter != int64(len(sels[i])) || c.BlocksSkipped != skipped {
							t.Fatalf("%s: counters %+v", label, c)
						}
						want, uncacheable, parent := decodeBounds(def, data, sels[i])
						if name == "raw" {
							want, uncacheable = 0, 0
						}
						if !cached {
							if c.BlocksDecoded != want || c.BlocksDecoded > parent || c.CacheHits != 0 {
								t.Fatalf("%s: %d blocks decoded, %d cache hits; want %d decoded (the materializing scan: %d)",
									label, c.BlocksDecoded, c.CacheHits, want, parent)
							}
							uncached[i] = c
							continue
						}
						if c.CacheHits+c.BlocksDecoded != uncached[i].BlocksDecoded {
							t.Fatalf("%s: %d hits + %d decodes, want %d reads",
								label, c.CacheHits, c.BlocksDecoded, uncached[i].BlocksDecoded)
						}
						if pass == 1 && (c.BlocksDecoded != uncacheable || c.CacheHits != want-uncacheable) {
							t.Fatalf("%s: warm cache: %d decodes, %d hits; want %d decodes (reads of raw, constant and dictionary-string blocks) and %d hits",
								label, c.BlocksDecoded, c.CacheHits, uncacheable, want-uncacheable)
						}
						if pass == 1 {
							warmDecodes += c.BlocksDecoded
							warmHits += c.CacheHits
						}
					}
				}
			}
		}
	}
	if warmDecodes == 0 || warmHits == 0 {
		t.Fatalf("warm passes: %d decodes, %d hits; the corpus must read both kinds of block", warmDecodes, warmHits)
	}
	if d := PoolOutstanding() - pooled; d != 0 {
		t.Fatalf("success: %d pooled buffers outstanding", d)
	}

	for _, q := range []string{
		"SELECT SUM(city) FROM T WHERE day > 1000",
		"SELECT AVG(nosuch) FROM T WHERE y > 1e300",
		"SELECT city, AVG(city) FROM T WHERE day > 1000 GROUP BY city",
		"SELECT COUNT(nosuch) FROM T WHERE day > 1000",
		"SELECT AVG(y) FROM T WHERE nosuch > 1 AND day > 1000",
		"SELECT AVG(y) FROM T WHERE y AND day > 1000",
	} {
		bad := mustPlan(t, q, plan.Options{}).Def
		if _, _, err := referenceScan(bad, raw); err == nil {
			t.Fatalf("reference accepted %q", q)
		}
		for name, data := range variants {
			if _, err := scanFilterProject(ctx, bad, 0, data, Config{Workers: 2}); err == nil {
				t.Errorf("%s %q: no error", name, q)
			}
		}
	}
	if d := PoolOutstanding() - pooled; d != 0 {
		t.Fatalf("errors: %d pooled buffers outstanding", d)
	}

	// Cancellation twenty blocks into each phase: phase 1 decodes City twice
	// per block, for the predicate and the key, phase 2 Time once per block.
	// Each of the two partitions walks 100 blocks, so it checks the context
	// again after its 64th whichever goroutine starts first.
	comp := table.Compress(clusteredSessions(200*table.BlockRows, 29))
	def := mustPlan(t, "SELECT City, AVG(Time) FROM Sessions WHERE City != 'SF' GROUP BY City", plan.Options{}).Def
	for _, phase := range []struct{ into, perBlock int64 }{{2 * 20, 2}, {2*200 + 20, 1}} {
		const workers = 2
		into := phase.into
		cctx := decodeCountCtx{Context: ctx, cancelAt: table.DecodedBlocks() + into}
		_, err := scanFilterProject(cctx, def, 0, comp, Config{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled %d decodes in: %v", into, err)
		}
		if past := (table.DecodedBlocks() - cctx.cancelAt) / phase.perBlock; past > 64*workers {
			t.Errorf("cancelled %d decodes in: the scan decoded %d blocks past it", into, past)
		}
		if d := PoolOutstanding() - pooled; d != 0 {
			t.Fatalf("cancelled %d decodes in: %d pooled buffers outstanding", into, d)
		}
	}

	// One partition cancelled in phase 1 after the other finished it. Each
	// of the two partitions walks 20 blocks, so phase 1 asks for the context
	// four times: once as each partition starts, before it takes its
	// selection and ids, and once at each partition's first block. The
	// fourth ask is the second of one partition, made once the other has
	// asked its last, so that one fails holding its selection and ids and
	// the other finishes phase 1 with its own.
	short := table.Compress(clusteredSessions(40*table.BlockRows, 29))
	cctx := errCallCtx{Context: ctx, calls: new(atomic.Int64), cancelAt: 4}
	if _, err := scanFilterProject(cctx, def, 0, short, Config{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled at the fourth context check: %v", err)
	}
	if n := cctx.calls.Load(); n != 4 {
		t.Fatalf("phase 1 checked the context %d times, want 4", n)
	}
	if d := PoolOutstanding() - pooled; d != 0 {
		t.Fatalf("one partition cancelled in phase 1: %d pooled buffers outstanding", d)
	}
}

// errCallCtx is cancelled from its cancelAt-th Err call on.
type errCallCtx struct {
	context.Context
	calls    *atomic.Int64
	cancelAt int64
}

func (c errCallCtx) Err() error {
	if c.calls.Add(1) >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// allocScanTable is a 50k-row compressed sample: a measure, 40 devices, and
// an hour column that cycles so that Hour < 6 keeps a quarter of every
// block.
func allocScanTable() *table.Table {
	const n = 50000
	src := rng.New(3)
	tm := make(table.Float64Col, n)
	dev := make(table.StringCol, n)
	hour := make(table.Int64Col, n)
	for i := 0; i < n; i++ {
		tm[i] = 60 + 20*src.NormFloat64()
		dev[i] = fmt.Sprintf("dev%02d", src.Intn(40))
		hour[i] = int64(i % 24)
	}
	raw := table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "Device", Type: table.String},
		{Name: "Hour", Type: table.Int64},
	}, tm, dev, hour)
	raw.BuildZones()
	return table.Compress(raw)
}

// TestSampleScanAllocatesOnce: the scan of three plain shapes allocates
// each per-row vector once. The budget is 1.15× the vectors the stage must
// build — each value column, or for GROUP BY the group vectors, which are
// the value column — plus 64 KiB. Building them by merge appends,
// absolute-index copies and a full-length temporary per masked column costs
// 3.5–6×. The filter's selection and the group ids come from pools, which
// the first run warms, so they cost nothing after it.
func TestSampleScanAllocatesOnce(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tbl := allocScanTable()
	for _, q := range []string{
		"SELECT SUM(Time) FROM S",
		"SELECT AVG(Time) FROM S WHERE Hour < 6",
		"SELECT Device, AVG(Time) FROM S GROUP BY Device",
	} {
		def := mustPlan(t, q, plan.Options{}).Def
		cfg := Config{Workers: 2}
		var must int
		run := func() {
			res, err := scanFilterProject(context.Background(), def, 0, tbl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			groups := res.groups
			must = 0
			for _, g := range groups {
				must += 8 * len(g.values[0])
			}
			if len(def.GroupBy) > 0 && len(groups) != 40 {
				t.Fatalf("%d groups", len(groups))
			}
		}
		run() // warm the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const reps = 5
		for i := 0; i < reps; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / reps
		budget := 1.15*float64(must) + 64<<10
		t.Logf("%s: %.0f bytes allocated per scan (must build %d, budget %.0f)", q, got, must, budget)
		if got > budget {
			t.Errorf("%s allocated %.0f bytes per scan, over %.0f", q, got, budget)
		}
	}
}

// TestCountFirstSkipsUnreadColumns: at the barrier, a column whose every
// group is under the diagnostic's floor, in a query that runs the diagnostic
// verdict-first, is neither allocated nor filled, and its aggregates get nil
// values; a column of a query that reads it whatever the verdict, a group
// over the floor, or a masked SUM/COUNT column is filled with the bits it has
// without count-first. Downstream, the skipped aggregate gets the verdict the
// diagnostic gives it from its values, and nothing else runs.
func TestCountFirstSkipsUnreadColumns(t *testing.T) {
	const rows = 8192 // City's four groups hold ~2,048 rows, under the floor of 3,200
	data := sessionsTable(rows, 91)
	opt := plan.DefaultOptions(rows)
	opt.VerdictFirst = true
	members := []struct {
		q       string
		verdict bool // runs the diagnostic verdict-first
		counted bool // count-first skips its column
	}{
		{"SELECT City, AVG(Time), STDEV(Time) FROM Sessions GROUP BY City", true, true}, // one column, read twice
		{"SELECT City, MAX(Time) FROM Sessions GROUP BY City", false, false},
		{"SELECT City, MIN(Time + 1) FROM Sessions GROUP BY City", true, true},
		{"SELECT AVG(Time) FROM Sessions", true, false},
		{"SELECT PERCENTILE(Time, 0.5) FROM Sessions WHERE Time > 100", true, true},
		{"SELECT COUNT(*) FROM Sessions WHERE Time > 100", true, false},
	}
	for _, workers := range []int{1, 3} {
		cfg := Config{Workers: workers}
		for _, m := range members {
			def := mustPlan(t, m.q, opt).Def
			verdictRows := 0
			if m.verdict {
				verdictRows = rows
			}
			want, err := scanFilterProject(context.Background(), def, 0, data, cfg)
			if err != nil {
				t.Fatalf("%q: %v", m.q, err)
			}
			got, err := scanFilterProject(context.Background(), def, verdictRows, data, cfg)
			if err != nil {
				t.Fatalf("%q: %v", m.q, err)
			}
			if len(got.groups) != len(want.groups) || got.counters.RowsAfterFilter != want.counters.RowsAfterFilter {
				t.Fatalf("%q: %d groups of %d rows, want %d of %d", m.q,
					len(got.groups), got.counters.RowsAfterFilter, len(want.groups), want.counters.RowsAfterFilter)
			}
			for g, wg := range want.groups {
				for ai, wv := range wg.values {
					gv := got.groups[g].values[ai]
					switch {
					case m.counted && gv != nil:
						t.Errorf("workers=%d %q group %q aggregate %d: filled %d values, want none", workers, m.q, wg.key, ai, len(gv))
					case !m.counted && !sameF64Bits(gv, wv):
						t.Errorf("workers=%d %q group %q aggregate %d: values differ from the scan without count-first", workers, m.q, wg.key, ai)
					}
				}
			}
		}
	}

	// Downstream: the same too_few_rows verdict, no value, no bar.
	p := mustPlan(t, members[2].q, opt)
	st := &StoredTable{Data: data, PopRows: rows * 10}
	res, err := Run(context.Background(), p, st, nil, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		a := g.Aggs[0]
		if a.Diag == nil || a.Diag.Cause.String() != "too_few_rows" || a.Values != nil || a.Bootstrap != nil || !math.IsNaN(a.Value) {
			t.Errorf("group %q: %+v, want a too_few_rows reject with no values, value or bar", g.Key, a)
		}
	}
}

// sameF64Bits reports whether two vectors hold the same bits.
func sameF64Bits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
