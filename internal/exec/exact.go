package exec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/estimator"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/table"
)

// Exact path: block-streamed sinks. A plan with no bootstrap and no
// diagnostic over a table that is the whole dataset needs nothing but
// θ per group, so it never gathers: runExact walks the zone-map-admitted
// blocks once, evaluates predicate, aggregate inputs and GROUP BY key per
// block in pooled scratch, and folds each surviving row straight into its
// group's sinks — running moments for the algebraic aggregates, one
// append-only value vector for PERCENTILE and UDFs. Memory is O(groups)
// (plus those vectors), not O(rows).
//
// Rows are folded in row order, the order the materializing path hands a
// group's values to Query.Eval, and the sinks perform the same operations
// (Moments.Add, sum += v, and for an input only MIN and MAX read, the
// compare-only fold of estimator.extreme), so answers are bit-identical to
// it on every backing. The scan runs on the calling goroutine:
// Config.Workers does not apply, so there is nothing for it to vary.
//
// On a block the predicate covers (zonemap.go) the predicate is not
// evaluated. An ungrouped query whose aggregates are all MIN, MAX and COUNT
// goes further: a covered block whose inputs' envelopes are its own rows'
// extrema folds those envelopes and its row count, and decodes nothing.
// Folding an envelope is folding its block's rows: each was folded from the
// block's first row by the same strict comparisons, which are associative
// once NaN is excluded — and a NaN envelope is never folded.
//
// The operator reads past the decoded-block cache (Config.Blocks): its
// blocks are read once, and admitting them would evict the sample blocks
// every approximate query re-reads (DESIGN.md §15).

// isExact reports whether the plan asks for exact execution on st.
func isExact(p *plan.Plan, st *StoredTable) bool {
	return p.Opt.BootstrapK == 0 && !p.Opt.Diagnostics && st.PopRows <= 0
}

// exactInput is one distinct aggregate input expression and the sink kinds
// the aggregates reading it need. udf marks a vector a UDF reads, which must
// reach it in row order. extreme marks an input MIN or MAX reads.
type exactInput struct {
	expr                            sql.Expr
	sum, moments, extreme, vec, udf bool
}

// inputSink is one (group, input) accumulator; only the members the input's
// aggregates need are maintained. sorted: finalize has sorted vec in place.
type inputSink struct {
	sum    float64
	m      stats.Moments
	ext    stats.Extremes
	vec    []float64
	sorted bool
}

type exactGroup struct {
	key   string
	rows  int64
	sinks []inputSink
}

// exactScan is the per-query state of the operator.
type exactScan struct {
	tbl    *table.Table
	pred   sql.Expr
	inputs []exactInput
	// aggInput maps each aggregate to its entry in inputs (-1: the row
	// indicator COUNT reads).
	aggInput []int

	// key reads the GROUP BY column (nil when ungrouped). keyInPred says the
	// predicate names it too: an int64 key is then read before the
	// predicate, so that its one decode serves both.
	key       *keyReader
	keyInPred bool

	// covered marks the admitted blocks the predicate holds on throughout
	// (nil: none; with no predicate, every block). envCols, when non-nil,
	// is each input's column, for a query a covered block can answer from
	// its envelopes: ungrouped, all MIN, MAX and COUNT, each input a bare
	// numeric column with zones.
	covered []bool
	envCols []int

	groups []exactGroup
	// rowPos/rowGroup list the current block's surviving rows and their
	// groups during a fold.
	rowPos, rowGroup []int32
}

// blockEval holds one block's evaluated expressions. Everything it points
// to lives in its scratch until release.
type blockEval struct {
	sc    scratch
	meter decodeMeter
	n     int
	keep  []bool // nil: no predicate, every row survives
	kept  int
	vals  []value
}

// runExact executes an exact plan with the block-streamed operator.
func runExact(ctx context.Context, def *plan.QueryDef, st *StoredTable, udfs Registry, cfg Config) (*Result, error) {
	tbl := st.Data
	grouped := len(def.GroupBy) > 0
	start := time.Now()
	verified, err := checkColumns(def, tbl)
	if err != nil {
		return nil, err
	}

	s := &exactScan{tbl: tbl, aggInput: make([]int, len(def.Aggs))}
	var skip []bool
	var c Counters
	if def.Where != nil {
		s.pred = def.Where
		skip, s.covered, c.BlocksSkipped = zoneSkip(tbl, s.pred, predRanges(s.pred))
	}
	if err := s.plan(def.Aggs); err != nil {
		return nil, fmt.Errorf("exec: scan of table %q: %w", def.Table, err)
	}
	if err := s.planKey(def.GroupBy); err != nil {
		return nil, fmt.Errorf("exec: grouping on table %q: %w", def.Table, err)
	}
	s.planEnvelopes(def.Aggs)
	queries, err := queriesFor(def, st, udfs)
	if err != nil {
		return nil, err
	}
	meter, err := s.reserveVectors(ctx, skip)
	if err == nil {
		var m decodeMeter
		m, err = s.scan(ctx, skip, false)
		meter.blocks, meter.nanos = meter.blocks+m.blocks, meter.nanos+m.nanos
	}
	if err != nil {
		return nil, fmt.Errorf("exec: scan of table %q: %w", def.Table, err)
	}
	dur := time.Since(start)

	c.Subqueries, c.Scans, c.Tasks = 1, 1, 1
	c.RowsScanned, c.BytesScanned = int64(tbl.NumRows()), tbl.SizeBytes()
	c.BlocksDecoded, c.DecodeNanos = meter.blocks, meter.nanos
	for i := range s.groups {
		c.RowsAfterFilter += s.groups[i].rows
	}
	res := &Result{SampleRows: tbl.NumRows(), Counters: c,
		Scan: StageTime{Start: start, Dur: dur, Counters: c, VerifiedBytes: verified}}
	if grouped {
		sort.Slice(s.groups, func(i, j int) bool { return s.groups[i].key < s.groups[j].key })
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		gout := GroupOutput{Key: g.key, Aggs: make([]AggOutput, len(queries))}
		for ai, spec := range def.Aggs {
			gout.Aggs[ai] = AggOutput{Spec: spec, Query: queries[ai],
				Value: s.finalize(g, ai, spec.Kind, queries[ai], grouped)}
		}
		res.Groups = append(res.Groups, gout)
	}
	return res, nil
}

// plan dedups the aggregates' input expressions and type-checks predicate
// and inputs against the schema, so a bad expression fails the query even
// when zone maps or the filter leave no block to evaluate it on.
func (s *exactScan) plan(aggs []plan.AggSpec) error {
	if s.pred != nil {
		if err := checkPredicate(s.pred, s.tbl); err != nil {
			return err
		}
	}
	byText := map[string]int{}
	for ai, spec := range aggs {
		in := aggInput(spec)
		if in == nil {
			if spec.Input != nil {
				if _, err := typeCheck(spec.Input, s.tbl); err != nil {
					return err
				}
			}
			s.aggInput[ai] = -1
			continue
		}
		if err := checkNumeric(in, s.tbl); err != nil {
			return err
		}
		text := in.String()
		ii, ok := byText[text]
		if !ok {
			ii = len(s.inputs)
			byText[text] = ii
			s.inputs = append(s.inputs, exactInput{expr: in})
		}
		s.aggInput[ai] = ii
		switch spec.Kind {
		case estimator.Sum:
			s.inputs[ii].sum = true
		case estimator.Min, estimator.Max:
			s.inputs[ii].extreme = true
		case estimator.Percentile:
			s.inputs[ii].vec = true
		case estimator.UDF:
			s.inputs[ii].vec, s.inputs[ii].udf = true, true
		default:
			s.inputs[ii].moments = true
		}
	}
	return nil
}

// planKey resolves the GROUP BY column, or installs the single ungrouped
// group.
func (s *exactScan) planKey(groupBy []string) error {
	if len(groupBy) == 0 {
		s.groups = []exactGroup{{sinks: make([]inputSink, len(s.inputs))}}
		return nil
	}
	key, err := newKeyReader(s.tbl, groupBy)
	if err != nil {
		return err
	}
	names := func(e sql.Expr) (found bool) {
		sql.EachColumn(e, func(c string) { found = found || strings.EqualFold(c, groupBy[0]) })
		return found
	}
	s.keyInPred = s.pred != nil && names(s.pred)
	key.memoF64 = s.keyInPred
	for _, in := range s.inputs {
		key.memoF64 = key.memoF64 || names(in.expr)
	}
	s.key = key
	return nil
}

// planEnvelopes sets envCols when a covered block can answer the query from
// its envelopes: ungrouped, every aggregate MIN, MAX or COUNT, and every
// input a bare column with zone envelopes.
func (s *exactScan) planEnvelopes(aggs []plan.AggSpec) {
	z := s.tbl.Zones()
	if s.key != nil || z == nil {
		return
	}
	for _, spec := range aggs {
		if spec.Kind != estimator.Min && spec.Kind != estimator.Max && spec.Kind != estimator.Count {
			return
		}
	}
	cols := make([]int, len(s.inputs))
	for ii, in := range s.inputs {
		ref, ok := in.expr.(*sql.ColumnRef)
		if !ok {
			return
		}
		cols[ii] = s.tbl.Schema().Index(ref.Name)
		if _, ok := z.Column(cols[ii]); !ok {
			return
		}
	}
	s.envCols = cols
}

// foldEnvelopes folds the n rows of covered block b into the ungrouped
// group from the inputs' envelopes, and reports false, folding nothing,
// when some envelope cannot stand for its rows: NaN, or int64 values past
// ±2^53.
func (s *exactScan) foldEnvelopes(b, n int) bool {
	z := s.tbl.Zones()
	for _, ci := range s.envCols {
		cz, _ := z.Column(ci)
		mn, mx := cz.Mins[b], cz.Maxs[b]
		// A NaN the envelope hides is harmless here: the envelope's fold,
		// like the row fold, skipped every NaN but a leading one, and that
		// one the envelope shows.
		if math.IsNaN(mn) || math.IsNaN(mx) || s.tbl.Column(ci).Type() == table.Int64 && !exactInts(mn, mx) {
			return false
		}
	}
	g := &s.groups[0]
	g.rows += int64(n)
	for ii, ci := range s.envCols {
		cz, _ := z.Column(ci)
		g.sinks[ii].ext.Add(cz.Mins[b], cz.Maxs[b])
	}
	return true
}

// reserveVectors sizes every vector sink once, before the folding walk.
// Grown by append instead, a vector of a whole table allocates about five
// times its final size (Go grows large slices by 1.25×), and the last two
// arrays are live together. The single ungrouped group reserves the
// admitted row count; grouped plans first run a counting walk over
// predicate and key, which creates the groups and fixes each one's length.
// It returns the counting walk's decode work.
func (s *exactScan) reserveVectors(ctx context.Context, skip []bool) (decodeMeter, error) {
	var meter decodeMeter
	vec := false
	for _, in := range s.inputs {
		vec = vec || in.vec
	}
	if !vec {
		return meter, nil
	}
	if s.key == nil {
		s.groups[0].rows = int64(admittedRows(0, s.tbl.NumRows(), skip))
	} else {
		var err error
		if meter, err = s.scan(ctx, skip, true); err != nil {
			return meter, err
		}
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		for ii, in := range s.inputs {
			if in.vec {
				g.sinks[ii].vec = make([]float64, 0, g.rows)
			}
		}
		g.rows = 0
	}
	return meter, nil
}

// admittedRows is the number of rows in the blocks a scan of rows [lo, hi)
// visits when skip marks the blocks zone maps rule out.
func admittedRows(lo, hi int, skip []bool) int {
	rows := hi - lo
	for block := lo / table.ZoneBlockRows; block < len(skip) && block*table.ZoneBlockRows < hi; block++ {
		if skip[block] {
			rows -= min((block+1)*table.ZoneBlockRows, hi) - max(block*table.ZoneBlockRows, lo)
		}
	}
	return rows
}

// scan walks the admitted blocks in row order on the calling goroutine,
// evaluating and folding one block at a time. It returns the decode work
// done. A counting walk evaluates only predicate and key and folds nothing
// but each group's row count.
func (s *exactScan) scan(ctx context.Context, skip []bool, counting bool) (decodeMeter, error) {
	be := blockEval{vals: make([]value, len(s.inputs))}
	// A block's predicate, key, inputs and survivors take a few pooled
	// vectors; room for them up front keeps the lists from regrowing.
	be.sc = scratch{m: &be.meter, memo: make([]value, s.tbl.NumCols()),
		f64s: make([]*[]float64, 0, 4), bools: make([]*[]bool, 0, 4)}
	err := walkBlocks(ctx, 0, s.tbl.NumRows(), skip, &be.sc, func(row, end int) error {
		covered := s.pred == nil || isCovered(s.covered, row)
		if covered && s.envCols != nil && !counting && s.foldEnvelopes(row/table.ZoneBlockRows, end-row) {
			return nil
		}
		err := s.evalBlock(&be, end-row, counting, covered)
		if err == nil && be.kept > 0 {
			s.fold(&be, counting)
		}
		return err
	})
	return be.meter, err
}

// evalBlock evaluates the predicate over the n rows at the scratch's window
// unless the block is covered and, when any row survives, the GROUP BY key
// and (unless counting) the aggregate inputs. The scratch memo makes every
// referenced column decode at most once for the block.
func (s *exactScan) evalBlock(be *blockEval, n int, counting, covered bool) error {
	be.n, be.keep, be.kept = n, nil, n
	keyFirst := s.key != nil && s.key.typ == table.Int64 && s.keyInPred
	if keyFirst {
		if err := s.key.read(s.tbl, n, &be.sc); err != nil {
			return err
		}
	}
	if s.pred != nil && !covered {
		v, err := evalExpr(s.pred, s.tbl, n, &be.sc)
		if err != nil {
			return err
		}
		be.keep, be.kept = v.bools, 0
		for _, keep := range v.bools {
			if keep {
				be.kept++
			}
		}
		if be.kept == 0 {
			return nil
		}
	}
	if s.key != nil && !keyFirst {
		if err := s.key.read(s.tbl, n, &be.sc); err != nil {
			return err
		}
	}
	for ii := 0; ii < len(s.inputs) && !counting; ii++ {
		v, err := evalExpr(s.inputs[ii].expr, s.tbl, n, &be.sc)
		if err != nil {
			return err
		}
		be.vals[ii] = v
	}
	return nil
}

// fold adds the block's surviving rows to their groups' sinks, in row order,
// creating each group on its key's first sight; a counting fold only counts
// them.
func (s *exactScan) fold(be *blockEval, counting bool) {
	s.rowPos, s.rowGroup = s.rowPos[:0], s.rowGroup[:0]
	if s.key != nil {
		s.rowGroup = s.key.number(be.keep, s.rowGroup)
		for names := s.key.keys.names; len(s.groups) < len(names); {
			s.groups = append(s.groups, exactGroup{key: names[len(s.groups)], sinks: make([]inputSink, len(s.inputs))})
		}
	}
	for i := 0; i < be.n; i++ {
		if be.keep != nil && !be.keep[i] {
			continue
		}
		if s.key == nil {
			s.rowGroup = append(s.rowGroup, 0)
		}
		s.groups[s.rowGroup[len(s.rowPos)]].rows++
		s.rowPos = append(s.rowPos, int32(i))
	}
	if counting {
		return
	}
	for ii, in := range s.inputs {
		v := &be.vals[ii]
		// An ungrouped input folds its moments a block at a time, in row
		// order: the bits of adding them one at a time.
		rowMoments := in.moments
		if in.moments && s.key == nil {
			s.groups[0].sinks[ii].m.AddAll(s.survivors(be, v))
			rowMoments = false
		}
		if !in.sum && !rowMoments && !in.extreme && !in.vec {
			continue
		}
		for k, p := range s.rowPos {
			x := v.numAt(int(p))
			sink := &s.groups[s.rowGroup[k]].sinks[ii]
			if in.sum {
				sink.sum += x
			}
			if rowMoments {
				sink.m.Add(x)
			}
			if in.extreme {
				sink.ext.Add(x, x)
			}
			if in.vec {
				sink.vec = append(sink.vec, x)
			}
		}
	}
}

// survivors is v at the block's surviving rows, in row order: v's own values
// when every row survives, otherwise a gather into the block's scratch.
func (s *exactScan) survivors(be *blockEval, v *value) []float64 {
	if be.keep == nil && !v.scalar {
		return v.nums[:be.n]
	}
	out := be.sc.getF64(len(s.rowPos))
	for k, p := range s.rowPos {
		out[k] = v.numAt(int(p))
	}
	return out
}

// finalize reads one aggregate's answer off its group's sink. Each case
// returns what estimator.Query.Eval returns for the same rows: NaN over no
// rows — except the ungrouped SUM/COUNT, which the materializing path
// evaluates over a full-length column masked to zero and so answers 0
// unless the table itself is empty.
func (s *exactScan) finalize(g *exactGroup, ai int, kind estimator.AggKind, q estimator.Query, grouped bool) float64 {
	var sink *inputSink
	if ii := s.aggInput[ai]; ii >= 0 {
		sink = &g.sinks[ii]
	}
	switch kind {
	case estimator.Percentile, estimator.UDF:
		if kind == estimator.UDF || s.inputs[s.aggInput[ai]].udf {
			return q.Eval(sink.vec)
		}
		// The sink owns vec and no UDF wants it in row order, so the sort
		// stats.Quantile performs on a copy runs on vec itself, once.
		if !sink.sorted {
			sort.Float64s(sink.vec)
			sink.sorted = true
		}
		return stats.QuantileSorted(sink.vec, q.Pct)
	case estimator.Sum, estimator.Count:
		if !grouped && s.tbl.NumRows() == 0 {
			return math.NaN()
		}
		if sink == nil {
			return float64(g.rows)
		}
		return sink.sum
	}
	if g.rows == 0 {
		return math.NaN()
	}
	switch kind {
	case estimator.Avg:
		return sink.m.Mean()
	case estimator.Min:
		return sink.ext.Min()
	case estimator.Max:
		return sink.ext.Max()
	case estimator.Variance:
		return sink.m.Variance()
	case estimator.Stdev:
		return sink.m.Stddev()
	}
	return math.NaN()
}

// aggInput is the expression an aggregate's values come from; nil is the
// per-row indicator 1. The engine has no NULLs, so COUNT(<expr>) counts
// rows exactly as COUNT(*) does and never evaluates its argument.
func aggInput(spec plan.AggSpec) sql.Expr {
	if spec.Kind == estimator.Count {
		return nil
	}
	return spec.Input
}

// typeCheck evaluates e over zero rows of tbl: unknown columns and
// operand-type errors surface, the result carries e's type, and nothing is
// decoded.
func typeCheck(e sql.Expr, tbl *table.Table) (value, error) {
	return evalExpr(e, tbl, 0, nil)
}

// checkPredicate type-checks a WHERE expression: it must resolve and be
// boolean.
func checkPredicate(e sql.Expr, tbl *table.Table) error {
	v, err := typeCheck(e, tbl)
	if err == nil && v.bools == nil {
		err = fmt.Errorf("exec: WHERE expression %s is not boolean", e)
	}
	return err
}

// checkNumeric type-checks an aggregate input: it must resolve and be
// numeric.
func checkNumeric(e sql.Expr, tbl *table.Table) error {
	v, err := typeCheck(e, tbl)
	if err == nil && (v.isStr || v.bools != nil) {
		err = fmt.Errorf("exec: expression %s is not numeric", e)
	}
	return err
}
