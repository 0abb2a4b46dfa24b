package exec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sql"
	"repro/internal/table"
	"repro/internal/work"
)

// UDF is a user-defined aggregate over weighted data (nil weights = all
// ones, weight zero = row absent).
type UDF func(values, weights []float64) float64

// Registry maps upper-cased UDF names to implementations.
type Registry map[string]UDF

// StoredTable is a stored sample plus the size of the population it was
// drawn from, which scaled SUM/COUNT need.
type StoredTable struct {
	Data *table.Table
	// PopRows is |D|, the row count of the dataset the sample represents.
	// Zero means the table IS the full dataset.
	PopRows int
	// ceilings and ranges memoize KeyCeiling's counts: the whole table's by
	// column index, and rangeCounts by rangePair. Data is immutable, so an
	// entry never goes stale, and a new sample starts with none.
	ceilings, ranges sync.Map
}

// Config controls physical execution.
type Config struct {
	// Workers is the local degree of parallelism (goroutines over row
	// ranges of the table and over bootstrap resamples). <= 0 means 1.
	Workers int
	// Seed drives all randomness (resampling weights, diagnostics).
	Seed uint64
	// Blocks, when non-nil, is the cross-query decoded-block cache: reader
	// gathers consult it before paying a codec decode, for the blocks
	// table.CacheableBlock admits; the rest are read from storage and
	// counted as decodes. Hits are metered in Counters.CacheHits/CacheBytes.
	// Nil reproduces decode-every-time behavior exactly. Exact plans stream
	// past it (exact.go).
	Blocks *cache.BlockCache
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 1
	}
	return c.Workers
}

// Counters meters the work a plan performed.
type Counters = work.Counters

// AggOutput is one aggregate's result for one group.
type AggOutput struct {
	Spec  plan.AggSpec
	Query estimator.Query
	// Value is the approximate answer θ(S) (or θ on the full table when
	// the scan target is not a sample).
	Value float64
	// Values is the projected aggregation column for this group — the
	// post-filter inputs θ consumed. Downstream consumers use it for
	// closed-form variance estimates without a second scan. Exact plans
	// stream rows into per-group sinks and leave it nil (see exact.go).
	Values []float64
	// ClosedForm is the closed-form interval of an aggregate whose Query
	// has one, from the one fold over Values that also gives Value (its
	// Center). A fold over no rows is Interval{NaN, NaN}.
	ClosedForm estimator.Interval
	// Bootstrap holds the K resample estimates of an aggregate whose error
	// bar is the bootstrap's (Query has no closed form), when the plan
	// resamples (K > 0) and a verdict-first plan did not reject it; nil
	// otherwise.
	Bootstrap []float64
	// Diag is the diagnostic verdict when the diagnostic operator ran.
	Diag *diagnostic.Result
}

// GroupOutput is the set of aggregate results for one group key.
type GroupOutput struct {
	Key  string
	Aggs []AggOutput
}

// Result is the output of executing a plan.
type Result struct {
	Groups     []GroupOutput
	Counters   Counters
	SampleRows int
	// Scan, Diagnostic and Bootstrap are the execution's stages; their
	// Counters sum to Counters. An exact plan only scans.
	Scan, Diagnostic, Bootstrap StageTime
}

// StageTime is one stage of an execution: when it began, how long it ran
// and its share of the work. A stage spread over the (group, aggregate) loop
// begins with its first piece and runs for the sum of its pieces. A stage
// that did not run has a zero Start.
type StageTime struct {
	Start    time.Time
	Dur      time.Duration
	Counters Counters
	// Resamples counts the resample estimates the stage drew: the bootstrap
	// kernel's, or those of the diagnostic's bootstrap ξ.
	Resamples int64
	// Accepted counts the diagnostic's accepts; Rejects holds the cause of
	// each of its rejections, in the order they were decided.
	Accepted int
	Rejects  []string
	// VerifiedBytes is the payload bytes a scan checked against their
	// store's sums before reading them: the first read of a column of a persisted
	// sample (table.CheckColumn).
	VerifiedBytes int64
}

// add accounts one piece of the stage that began at start and did c.
func (s *StageTime) add(start time.Time, c Counters) {
	if s.Start.IsZero() {
		s.Start = start
	}
	s.Dur += time.Since(start)
	s.Counters.Add(c)
}

// Run executes the plan against st. Execution is the §5.3 plan: one
// physical pass computes the plain answer, and every bootstrap resample and
// diagnostic subsample is evaluated over the filtered, projected values that
// pass produced — Poisson weights are drawn only for rows surviving the
// filter. Scans contribute no randomness: all resampling randomness derives
// from per-(seed, stream) RNGs that do not depend on how the scan was
// performed.
//
// A plan with no bootstrap and no diagnostic over a table that is the full
// dataset (PopRows == 0) is exact execution and runs on the block-streamed
// operator in exact.go instead of the materializing pipeline described
// above; its answers are bit-identical to that pipeline's.
//
// Execution honours ctx: cancellation is checked at every stage boundary,
// between (group, aggregate) work units, inside the diagnostic's subsample
// loop and inside the kernel's block loop, so a cancelled query aborts
// within one block (8 KiB of values) of resampling work. A cancelled Run
// returns an error wrapping ctx.Err() after all its worker goroutines have
// exited.
func Run(ctx context.Context, p *plan.Plan, st *StoredTable, udfs Registry, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exec: before scan: %w", err)
	}
	if isExact(p, st) {
		return runExact(ctx, p.Def, st, udfs, cfg)
	}
	// A verdict-first plan with the diagnostic on lets the pass count first.
	verdictRows := 0
	if o := p.Opt; o.Diagnostics && o.VerdictFirst {
		verdictRows = o.SampleRows
	}
	scanStart := time.Now()
	verified, err := checkColumns(p.Def, st.Data)
	if err != nil {
		return nil, err
	}
	base, err := scanFilterProject(ctx, p.Def, verdictRows, st.Data, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{SampleRows: st.Data.NumRows(), Counters: base.counters,
		Scan: StageTime{Start: scanStart, Dur: time.Since(scanStart), Counters: base.counters, VerifiedBytes: verified}}
	if err := runDownstream(ctx, p, st, base, udfs, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// checkColumns checks the payload of every column def reads from tbl — its
// predicate's, its aggregates' inputs' and its GROUP BY key's — against the
// sum its store lists (table.CheckColumn), before a scan reads any of them. It
// returns the bytes it hashed; a column checked before costs nothing, and one
// the schema lacks is left to the scan's type check. A refused column fails
// the scan with the *table.CorruptColumnError.
func checkColumns(def *plan.QueryDef, tbl *table.Table) (int64, error) {
	var hashed int64
	var err error
	check := func(name string) {
		if i := tbl.Schema().Index(name); i >= 0 && err == nil {
			var n int64
			n, err = table.CheckColumn(tbl.Column(i))
			hashed += n
		}
	}
	for _, name := range def.GroupBy {
		check(name)
	}
	sql.EachColumn(def.Where, check)
	for _, spec := range def.Aggs {
		if in := aggInput(spec); in != nil {
			sql.EachColumn(in, check)
		}
	}
	if err != nil {
		return hashed, fmt.Errorf("exec: scan of table %q: %w", def.Table, err)
	}
	return hashed, nil
}

// runDownstream drives everything after the physical pass — bootstrap and
// diagnostics over each group — and finalizes the result's counters: base
// carries the scan's output, and res.Counters already holds its counters.
func runDownstream(ctx context.Context, p *plan.Plan, st *StoredTable, base *scanResult, udfs Registry, cfg Config, res *Result) error {
	k := p.Opt.BootstrapK
	queries, err := queriesFor(p.Def, st, udfs)
	if err != nil {
		return err
	}
	for _, g := range base.groups {
		gout := GroupOutput{Key: g.key}
		for ai, spec := range p.Def.Aggs {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("exec: group %q aggregate %d: %w", g.key, ai, err)
			}
			q := queries[ai]
			values := g.values[ai]
			// nil values: count-first found the group too small for a
			// diagnosis at the scan's barrier and left its column unfilled.
			// The diagnostic below rejects it too_few_rows from its length
			// alone, and nothing else runs: no θ(S), no fold, no bootstrap.
			counted := values == nil
			out := AggOutput{Spec: spec, Query: q, Values: values}
			// θ(S) is computed once: the closed forms' fold gives it with the
			// bar, q.Eval the rest, and the diagnostic reads it through theta.
			// The fold draws no randomness: with a second worker it starts
			// beside the diagnostic's shuffle, and theta, called after the
			// shuffle, runs it itself if that worker has not begun it yet.
			closed := q.ClosedFormApplicable()
			var once sync.Once
			fold := func() {
				once.Do(func() {
					out.ClosedForm = closedForm(values, q)
					out.Value = out.ClosedForm.Center // q.Eval's bits, from the fold that gave the bar
				})
			}
			var folded chan struct{}
			switch {
			case counted:
				out.Value = math.NaN()
			case !closed:
				out.Value = q.Eval(values)
			case p.Opt.Diagnostics && cfg.workers() > 1:
				folded = make(chan struct{})
				go func() { defer close(folded); fold() }()
			default:
				fold()
			}
			theta := func() float64 {
				if closed {
					fold()
				}
				return out.Value
			}

			// The diagnostic runs before error estimation. Its verdict does
			// not depend on the bootstrap below (the "diag" and "boot" RNG
			// streams are independent), and under a verdict-first plan a
			// rejected aggregate is re-answered exactly by the caller, so its
			// K resample estimates would never be read: skip them. Nothing
			// reads them for an aggregate with a closed form either.
			if p.Opt.Diagnostics {
				start := time.Now()
				dres, c, drawn, err := runDiagnostic(ctx, p.Opt, values, theta, q, cfg, g.key, ai)
				if folded != nil {
					<-folded // the fold has run, and its goroutine is gone
				}
				if err != nil {
					return fmt.Errorf("exec: diagnostic for group %q aggregate %d: %w",
						g.key, ai, err)
				}
				out.Diag = dres
				res.Counters.Add(c)
				res.Diagnostic.add(start, c)
				res.Diagnostic.Resamples += drawn
				if dres.OK {
					res.Diagnostic.Accepted++
				} else {
					res.Diagnostic.Rejects = append(res.Diagnostic.Rejects, dres.Cause.String())
				}
			}
			replaced := out.Diag != nil && !out.Diag.OK && p.Opt.VerdictFirst
			if k > 0 && !replaced && !closed {
				start := time.Now()
				ests, c, err := bootstrapEstimates(ctx, values, q, k, cfg, g.key, ai)
				if err != nil {
					return fmt.Errorf("exec: bootstrap for group %q aggregate %d: %w",
						g.key, ai, err)
				}
				out.Bootstrap = ests
				res.Counters.Add(c)
				res.Bootstrap.add(start, c)
				res.Bootstrap.Resamples += int64(len(ests))
			}
			gout.Aggs = append(gout.Aggs, out)
		}
		res.Groups = append(res.Groups, gout)
	}
	return nil
}

// closedForm is q's closed-form interval over values, from the one fold that
// also gives θ(S). Over no rows there is neither a centre nor a width.
func closedForm(values []float64, q estimator.Query) estimator.Interval {
	if len(values) == 0 {
		return estimator.Interval{Center: math.NaN(), HalfWidth: math.NaN()}
	}
	// The fold's only errors are a query without a closed form, which the
	// caller rules out, and an empty sample, ruled out above.
	iv, _ := (estimator.ClosedForm{}).Interval(nil, values, q, estimator.ConfidenceLevel)
	return iv
}

// scanResult is the output of the scan→filter→project pass: its groups in
// key order, each holding one value vector per aggregate. An ungrouped query
// has the one group "".
type scanResult struct {
	groups   []group
	counters Counters
}

// group is one GROUP BY bucket with per-aggregate value columns.
type group struct {
	key    string
	values [][]float64
}

// predWork is the query's filter predicate, with its precomputed zone-map
// skip and covered lists. Phase 1 fills local; the barrier derives starts
// and rows from local.
type predWork struct {
	pred    sql.Expr // nil: no WHERE, every row survives
	skip    []bool
	covered []bool // admitted blocks pred holds on throughout
	skipped int64
	// local holds each partition's surviving rows: nil without a WHERE
	// (every row), never nil with one (a pooled selection always has
	// backing), which is how fill tells the two apart. Row numbers are
	// int32 like the group ids, which share their pool.
	local  [][]int32
	starts []int // per partition: rank of its first survivor overall
	rows   int
}

// keyWork is the query's GROUP BY column under its predicate. In phase 1,
// partition i's reader numbers that partition's survivors by key. The
// barrier merges the partitions' keys into names, sorted, renumbers every
// survivor's group to its index there, and lays every column of the
// grouping out as its groups' vectors back to back: group g holds slots
// [bounds[g], bounds[g+1]), and partition i's survivors in group g start at
// slot at[i*len(names)+g].
type keyWork struct {
	readers []*keyReader
	names   []string
	bounds  []int
	at      []int
}

// colWork describes how one distinct projected column is computed: which
// predicate selects its rows, which expression produces its values (nil =
// indicator), whether it is the full-length masked form scaled sums need,
// and which grouping's group vectors it fills (nil: one vector in row
// order). out is allocated once, at its exact length, at the barrier; one
// that stays nil is a column count-first left unfilled, its every group under
// the diagnostic's floor (see scanFilterProject).
type colWork struct {
	pred   *predWork
	keys   *keyWork
	input  sql.Expr
	masked bool
	out    []float64
}

// colKeyFor derives the dedup key for one aggregate's input column. Keys
// combine the evaluation mode and the expression text, so two aggregates of
// the query — which share its predicate and grouping — share one evaluation
// exactly when they would compute identical vectors (AVG(x) and STDEV(x)).
func colKeyFor(spec plan.AggSpec, masked bool) (string, colWork) {
	isSum := spec.Kind == estimator.Sum || spec.Kind == estimator.Count
	input := aggInput(spec)
	switch {
	case isSum && masked:
		// Scaled sums evaluate over ALL sample rows, with zeros where the
		// filter fails, so that the self-normalizing |D|·Σwx/Σw estimator
		// sees the filter as part of the statistic. (Grouped queries fall
		// back to conditional per-group columns; each group is treated as
		// a separate query, per §2.1.)
		key := "m|"
		if input != nil {
			key += input.String()
		}
		return key, colWork{input: input, masked: true}
	case input == nil:
		// COUNT under GROUP BY: indicator 1 per surviving row.
		return "1", colWork{}
	default:
		return "o|" + input.String(), colWork{input: input}
	}
}

// scanFilterProject performs the query's ONE physical pass over tbl, split
// into partitions, block-aligned row ranges of tbl (blockRanges). Each
// partition is visited once, the filter predicate is evaluated once per
// partition (with zone-map block skipping), the GROUP BY column is keyed in
// that same walk, and every distinct (expression, mode) projection column is
// materialized once and aliased into every aggregate reading it. This is
// §5.3.1's scan consolidation of one query's bootstrap and diagnostic
// subqueries.
//
// The pass has two phases over the same partitions (DESIGN.md §22). Phase
// 1 evaluates the predicate and numbers each survivor's group. At the
// barrier the survivor counts, per group for a grouping, fix every
// output's exact length and each partition's offset in it, so phase 2
// allocates each column once and every partition writes its share in place
// — a grouped column straight into its groups' vectors — evaluating the
// inputs one zone block at a time in pooled scratch, over the blocks with a
// survivor only. Row order is the table's within every vector, so answers
// are identical at any partition count.
//
// Count-first: verdictRows is the sample rows when the query runs the
// diagnostic verdict-first (plan.Options), and 0 when it does not. A
// verdict-first aggregate over a group too small for diagnostic.Ladder is
// rejected too_few_rows and re-answered exactly, so its values are never
// read. When that holds at the barrier for every group of a column, phase 2
// neither allocates nor fills the column, and its aggregates get nil values
// (runDownstream). A masked column holds every sample row, so it is never
// under the floor.
//
// Expressions are type-checked before the pass, so an error during it is
// the context's.
func scanFilterProject(ctx context.Context, def *plan.QueryDef, verdictRows int, tbl *table.Table, cfg Config) (*scanResult, error) {
	fail := func(err error) (*scanResult, error) {
		return nil, fmt.Errorf("exec: scan of table %q: %w", def.Table, err)
	}
	if tbl.NumRows() > math.MaxInt32 {
		return fail(fmt.Errorf("%d rows: the scan numbers rows in int32", tbl.NumRows()))
	}
	bounds := blockRanges(tbl.NumRows(), cfg.workers())
	parts := len(bounds) - 1

	// --- Plan the work: the predicate, the grouping and the distinct columns. ---
	pw := &predWork{pred: def.Where}
	if pw.pred != nil {
		if err := checkPredicate(pw.pred, tbl); err != nil {
			return fail(err)
		}
		pw.skip, pw.covered, pw.skipped = zoneSkip(tbl, pw.pred, predRanges(pw.pred))
	}
	grouped := len(def.GroupBy) > 0
	var kw *keyWork
	cols := make([]*colWork, len(def.Aggs)) // per aggregate, aliased when equal
	var distinct []*colWork
	colByKey := map[string]*colWork{}
	for ai, spec := range def.Aggs {
		if spec.Kind == estimator.Count && spec.Input != nil {
			// COUNT never evaluates its argument, but a COUNT of something
			// that does not resolve is still an error.
			if _, err := typeCheck(spec.Input, tbl); err != nil {
				return fail(err)
			}
		}
		text, w := colKeyFor(spec, !grouped)
		cw, ok := colByKey[text]
		if !ok {
			cw = &w
			cw.pred = pw
			if cw.input != nil {
				if err := checkNumeric(cw.input, tbl); err != nil {
					return fail(err)
				}
			}
			colByKey[text] = cw
			distinct = append(distinct, cw)
		}
		cols[ai] = cw
	}
	if grouped {
		r, err := newKeyReader(tbl, def.GroupBy)
		if err != nil {
			return nil, fmt.Errorf("exec: grouping on table %q: %w", def.Table, err)
		}
		kw = &keyWork{}
		for range parts {
			c := *r
			kw.readers = append(kw.readers, &c)
		}
		for _, cw := range distinct {
			cw.keys = kw
		}
	}

	// --- Phase 1: the predicate, and the grouping, once per partition. ---
	meters := make([]decodeMeter, parts)
	partErrs := make([]error, parts)
	eachPart := func(work func(i, lo, hi int) error) error {
		var wg sync.WaitGroup
		for i := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if partErrs[i] = ctx.Err(); partErrs[i] == nil {
					partErrs[i] = work(i, bounds[i], bounds[i+1])
				}
			}()
		}
		wg.Wait()
		for _, err := range partErrs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	// Each partition's selection and group ids come from i32Pool and go
	// back on every exit, once phase 2 has read them.
	pw.local = make([][]int32, parts)
	var sels, ids []*[]int32
	if pw.pred != nil || kw != nil {
		sels, ids = make([]*[]int32, parts), make([]*[]int32, parts)
		defer func() {
			for i := range parts {
				if sels[i] != nil {
					*sels[i] = pw.local[i]
					putPooled(i32Pool, sels[i])
				}
				if ids[i] != nil {
					*ids[i] = kw.readers[i].ids
					putPooled(i32Pool, ids[i])
				}
			}
		}()
	}
	err := eachPart(func(i, lo, hi int) error {
		if pw.pred == nil && kw == nil {
			return nil
		}
		if pw.pred != nil {
			sels[i] = getPooled[int32](i32Pool)
			pw.local[i] = *sels[i]
		}
		var key *keyReader
		if kw != nil {
			key = kw.readers[i]
			ids[i] = getPooled[int32](i32Pool)
			key.ids = *ids[i]
		}
		var err error
		pw.local[i], err = evalPredicateSkipping(ctx, pw.pred, tbl, lo, hi, pw.skip, pw.covered, &meters[i], cfg.Blocks, pw.local[i], key)
		return err
	})

	// --- Barrier: survivor counts size every output exactly. ---
	if err == nil {
		pw.starts = make([]int, parts)
		for i := range parts {
			pw.starts[i] = pw.rows
			if pw.pred == nil {
				pw.rows += bounds[i+1] - bounds[i]
			} else {
				pw.rows += len(pw.local[i])
			}
		}
		if kw != nil {
			kw.layout()
		}
		for _, cw := range distinct {
			if cw.tooFew(verdictRows) {
				continue
			}
			n := pw.rows
			if cw.masked {
				n = tbl.NumRows()
			}
			cw.out = make([]float64, n)
		}

		// --- Phase 2: each partition writes its share in place. ---
		err = eachPart(func(i, lo, hi int) error {
			sc := &scratch{m: &meters[i], blocks: cfg.Blocks}
			for _, cw := range distinct {
				if cw.out == nil {
					continue
				}
				if err := cw.fill(ctx, tbl, i, lo, hi, sc); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		return fail(err)
	}

	r := &scanResult{groups: kw.groups(cols)}
	r.counters = Counters{
		Scans:           1,
		Subqueries:      1,
		RowsScanned:     int64(tbl.NumRows()),
		RowsAfterFilter: int64(pw.rows),
		BytesScanned:    tbl.SizeBytes(),
		BlocksSkipped:   pw.skipped,
		Tasks:           parts,
	}
	for _, mt := range meters {
		r.counters.BlocksDecoded += mt.blocks
		r.counters.DecodeNanos += mt.nanos
		r.counters.CacheHits += mt.hits
		r.counters.CacheBytes += mt.hitBytes
	}
	return r, nil
}

// blockRanges splits n rows into k partitions [bounds[i], bounds[i+1]) of
// whole zone blocks, the last ending at n: each one decodes and zone-checks
// whole storage blocks, and the blocks are spread as evenly as k allows.
// Trailing partitions are empty when there are fewer blocks than k.
func blockRanges(n, k int) []int {
	nb := (n + table.ZoneBlockRows - 1) / table.ZoneBlockRows
	bounds := make([]int, k+1)
	for i := 1; i <= k; i++ {
		blocks := i*(nb/k) + min(i, nb%k)
		bounds[i] = min(blocks*table.ZoneBlockRows, n)
	}
	return bounds
}

// layout merges the partitions' keys, renumbers their survivors' groups
// and places every partition's share of every group (see keyWork).
func (kw *keyWork) layout() {
	slot := map[string]int32{}
	for _, r := range kw.readers {
		for _, name := range r.keys.names {
			if _, ok := slot[name]; !ok {
				slot[name] = 0
				kw.names = append(kw.names, name)
			}
		}
	}
	sort.Strings(kw.names)
	for g, name := range kw.names {
		slot[name] = int32(g)
	}
	groups := len(kw.names)
	kw.at = make([]int, len(kw.readers)*groups) // counts until the walk below
	for i, r := range kw.readers {
		remap := make([]int32, len(r.keys.names))
		for id, name := range r.keys.names {
			remap[id] = slot[name]
		}
		for t, id := range r.ids {
			r.ids[t] = remap[id]
			kw.at[i*groups+int(remap[id])]++
		}
	}
	kw.bounds = make([]int, groups+1)
	pos := 0
	for g := range kw.names {
		kw.bounds[g] = pos
		for i := range kw.readers {
			n := kw.at[i*groups+g]
			kw.at[i*groups+g] = pos
			pos += n
		}
	}
	kw.bounds[groups] = pos
}

// tooFew is count-first's test at the barrier: the query runs the
// diagnostic verdict-first on a sample of sampleRows rows (0: it does not),
// and every group of the column is too small for diagnostic.Ladder on it.
func (cw *colWork) tooFew(sampleRows int) bool {
	if sampleRows <= 0 || cw.masked {
		return false
	}
	under := func(n int) bool {
		sizes, _ := diagnostic.Ladder(sampleRows, n)
		return sizes == nil
	}
	if cw.keys == nil {
		return under(cw.pred.rows)
	}
	for g := range cw.keys.names {
		if !under(cw.keys.bounds[g+1] - cw.keys.bounds[g]) {
			return false
		}
	}
	return true
}

// groups hands the query its columns' vectors group by group; a nil keyWork
// (an ungrouped query) gives the one group "" of whole columns. A column
// count-first left unfilled gives every group nil values.
func (kw *keyWork) groups(cols []*colWork) []group {
	if kw == nil {
		values := make([][]float64, len(cols))
		for ai, cw := range cols {
			values[ai] = cw.out
		}
		return []group{{values: values}}
	}
	out := make([]group, len(kw.names))
	values := make([][]float64, len(kw.names)*len(cols))
	for g, name := range kw.names {
		lo, hi := kw.bounds[g], kw.bounds[g+1]
		out[g] = group{key: name, values: values[g*len(cols) : (g+1)*len(cols) : (g+1)*len(cols)]}
		for ai, cw := range cols {
			if cw.out != nil {
				out[g].values[ai] = cw.out[lo:hi:hi]
			}
		}
	}
	return out
}

// fill writes partition i's share of the column, rows [lo, hi) of tbl: a
// value per row when masked (rows the filter rejected stay 0), otherwise a
// value per survivor, at its rank in the column or, grouped, at the next
// free slot of its group's vector. The input is evaluated one zone block at
// a time in sc's pooled scratch — the exact operator's walk — and only over
// blocks with a survivor.
func (cw *colWork) fill(ctx context.Context, tbl *table.Table, i, lo, hi int, sc *scratch) error {
	local := cw.pred.local[i] // nil: every row survives
	var ids []int32           // grouped: each survivor's group
	var next []int            // grouped: each group's next free slot
	if cw.keys != nil {
		groups := len(cw.keys.names)
		ids, next = cw.keys.readers[i].ids, slices.Clone(cw.keys.at[i*groups:(i+1)*groups])
	}
	dst := cw.out
	k := 0 // the next survivor, counted from the partition's first
	return walkBlocks(ctx, lo, hi, cw.pred.skip, sc, func(row, end int) error {
		k0 := k
		if local == nil {
			k = end - lo
		} else {
			for k < len(local) && int(local[k]) < end {
				k++
			}
			if k == k0 {
				return nil
			}
		}
		v := value{scalar: true, numS: 1}
		if cw.input != nil {
			var err error
			if v, err = evalExpr(cw.input, tbl, end-row, sc); err != nil {
				return err
			}
		}
		switch {
		case ids != nil:
			for t := k0; t < k; t++ {
				r := lo + t
				if local != nil {
					r = int(local[t])
				}
				g := ids[t]
				dst[next[g]] = v.numAt(r - row)
				next[g]++
			}
		case local != nil:
			for t, r := range local[k0:k] {
				pos := cw.pred.starts[i] + k0 + t
				if cw.masked {
					pos = int(r)
				}
				dst[pos] = v.numAt(int(r) - row)
			}
		// Every row survives, so row r's rank is r, masked or not.
		case v.scalar:
			for j := row; j < end; j++ {
				dst[j] = v.numS
			}
		default:
			copy(dst[row:end], v.nums)
		}
		return nil
	})
}

// keyReader reads a GROUP BY column one zone block at a time and numbers
// its keys; the exact operator and the sample scan both key through it. An
// int64 key is read natively — float64 cannot carry every int64 — raw
// columns by reference and block columns with one metered decode. A string
// or float64 key is gathered like any column reference, so a scratch with a
// block cache serves it from there.
type keyReader struct {
	idx  int
	ref  *sql.ColumnRef
	typ  table.Type
	keys groupKeys
	// memoF64 asks read to leave the float64 form of an int64 key in the
	// scratch memo, for a predicate or input that names the column.
	memoF64 bool
	buf     []int64 // backs a decoded int64 block
	// The block read last: ints for an int64 key, v otherwise.
	ints []int64
	v    value
	// ids collects the sample scan's numbering of one partition's
	// survivors, in row order.
	ids []int32
}

// newKeyReader resolves a GROUP BY clause over tbl's schema.
func newKeyReader(tbl *table.Table, groupBy []string) (*keyReader, error) {
	if len(groupBy) > 1 {
		return nil, fmt.Errorf("exec: multi-column GROUP BY not supported (got %d columns)",
			len(groupBy))
	}
	idx := tbl.Schema().Index(groupBy[0])
	if idx < 0 {
		return nil, fmt.Errorf("exec: unknown GROUP BY column %q", groupBy[0])
	}
	return &keyReader{idx: idx, ref: &sql.ColumnRef{Name: groupBy[0]}, typ: tbl.Schema()[idx].Type}, nil
}

// read reads the key of the n rows of tbl at sc's window.
func (k *keyReader) read(tbl *table.Table, n int, sc *scratch) error {
	if k.typ != table.Int64 {
		var err error
		k.v, err = evalExpr(k.ref, tbl, n, sc)
		return err
	}
	col := tbl.Column(k.idx)
	if c, ok := col.(table.Int64Col); ok {
		k.ints = c[sc.off : sc.off+n]
	} else {
		m := sc.meter()
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		if k.buf == nil {
			k.buf = make([]int64, table.ZoneBlockRows)
		}
		k.ints = k.buf[:n]
		col.(table.I64Reader).ReadI64(k.ints, sc.off)
		if m != nil {
			m.blocks++
			m.nanos += time.Since(start).Nanoseconds()
		}
	}
	if k.memoF64 && sc.memo != nil {
		nums := sc.getF64(n)
		for i, v := range k.ints {
			nums[i] = float64(v)
		}
		sc.memo[k.idx] = value{nums: nums}
	}
	return nil
}

// number appends to dst the group of every row of the block read last that
// keep marks (keep nil: every row), numbering keys on first sight.
func (k *keyReader) number(keep []bool, dst []int32) []int32 {
	switch {
	case k.typ == table.Int64:
		for i, v := range k.ints {
			if keep == nil || keep[i] {
				dst = append(dst, k.keys.i64(v))
			}
		}
	case k.v.isStr:
		for i, s := range k.v.strs {
			if keep == nil || keep[i] {
				dst = append(dst, k.keys.str(s))
			}
		}
	default:
		for i, f := range k.v.nums {
			if keep == nil || keep[i] {
				dst = append(dst, k.keys.f64(f))
			}
		}
	}
	return dst
}

// groupKeys numbers GROUP BY keys densely, in order of first sight. A group
// is identified by its rendered key (FormatInt, FormatFloat 'g'), so float
// keys whose bits differ but render alike (NaN payloads) share one; the
// typed maps in front only spare the per-row formatting.
type groupKeys struct {
	names  []string
	byStr  map[string]int32
	byI64  map[int64]int32
	byBits map[uint64]int32
}

func (k *groupKeys) str(s string) int32 {
	g, ok := k.byStr[s]
	if !ok {
		if k.byStr == nil {
			k.byStr = map[string]int32{}
		}
		g = int32(len(k.names))
		k.byStr[s] = g
		k.names = append(k.names, s)
	}
	return g
}

func (k *groupKeys) i64(v int64) int32 {
	g, ok := k.byI64[v]
	if !ok {
		if k.byI64 == nil {
			k.byI64 = map[int64]int32{}
		}
		g = k.str(strconv.FormatInt(v, 10))
		k.byI64[v] = g
	}
	return g
}

func (k *groupKeys) f64(v float64) int32 {
	bits := math.Float64bits(v)
	g, ok := k.byBits[bits]
	if !ok {
		if k.byBits == nil {
			k.byBits = map[uint64]int32{}
		}
		g = k.str(strconv.FormatFloat(v, 'g', -1, 64))
		k.byBits[bits] = g
	}
	return g
}

// queriesFor resolves the θ of each of def's aggregates on st's rows
// (plan.AggSpec.Query), taking a UDF's body from udfs.
func queriesFor(def *plan.QueryDef, st *StoredTable, udfs Registry) ([]estimator.Query, error) {
	qs := make([]estimator.Query, len(def.Aggs))
	for ai, spec := range def.Aggs {
		fn, ok := udfs[spec.UDFName]
		if spec.Kind == estimator.UDF && !ok {
			return nil, fmt.Errorf("exec: aggregate %d: unregistered UDF %q", ai, spec.UDFName)
		}
		qs[ai] = spec.Query(st.PopRows, st.Data.NumRows(), len(def.GroupBy) > 0, fn)
	}
	return qs, nil
}

// bootstrapEstimates computes the K resample estimates
// (estimator.Query.ResampleEstimates) on the executor's workers, from the
// (group, aggregate)'s own RNG stream. Weights are drawn for the filtered
// values only (§5.3.2), K per value.
func bootstrapEstimates(ctx context.Context, values []float64, q estimator.Query, k int, cfg Config, groupKey string, aggIdx int) ([]float64, Counters, error) {
	var c Counters
	ests, tasks := q.ResampleEstimates(ctx, values, k, cfg.Seed, hashStream("boot", groupKey, aggIdx, 0), cfg.workers())
	if err := ctx.Err(); err != nil {
		return nil, c, err
	}
	c.Tasks += tasks
	c.WeightDraws += int64(k) * int64(len(values))
	return ests, c, nil
}

// runDiagnostic executes the diagnostic operator for one aggregate, and
// returns with its verdict the resample estimates its bootstrap ξ drew: the
// K of the ξ it built, for each subsample ξ was run on.
func runDiagnostic(ctx context.Context, opt plan.Options, values []float64, theta func() float64, q estimator.Query, cfg Config, groupKey string, aggIdx int) (*diagnostic.Result, Counters, int64, error) {
	var c Counters
	sizes, _ := diagnostic.Ladder(opt.SampleRows, len(values))
	if sizes == nil {
		return diagnostic.TooFewRows(), c, 0, nil
	}
	dcfg := diagnostic.Config{
		SubsampleSizes: sizes,
		P:              diagnostic.P,
		// Fan the per-size subsample queries across the executor's worker
		// pool; verdicts are worker-count-invariant (per-subsample streams).
		Workers: cfg.workers(),
	}
	var xi estimator.Estimator
	k := 0 // resamples per ξ interval
	if q.ClosedFormApplicable() {
		// Diagnostic subsamples are small (tens to hundreds of rows), so
		// the Student-t critical value matters; with z the widths would be
		// biased slightly narrow at every ladder size.
		xi = estimator.ClosedForm{UseStudentT: true}
	} else {
		b := estimator.Bootstrap{K: opt.BootstrapK}
		xi, k = b, b.Resamples()
	}
	src := rng.NewWithStream(cfg.Seed, hashStream("diag", groupKey, aggIdx, 0))
	dres, err := diagnostic.Run(ctx, src, values, theta, q, xi, dcfg)
	if err != nil {
		return nil, c, 0, err
	}
	c.DiagSubqueries += dres.SubsampleQueries
	return &dres, c, int64(k) * int64(dres.XiRuns), nil
}

// hashStream derives a deterministic RNG stream id from execution
// coordinates.
func hashStream(kind, groupKey string, aggIdx, r int) uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(kind)
	mix(groupKey)
	h ^= uint64(aggIdx)
	h *= 1099511628211
	h ^= uint64(r)
	h *= 1099511628211
	return h
}
