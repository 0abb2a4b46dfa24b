package exec

import (
	"math"

	"repro/internal/estimator"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/table"
)

// Zone-map pruning: a conservative predicate-range analyzer derives, per
// column, an interval outside which no row can satisfy the filter; blocks
// whose zone-map envelope is disjoint from that interval are skipped
// without evaluating the predicate on their rows. "Conservative" means the
// derived interval always contains the true feasible set — unsupported
// constructs (NOT, arithmetic over columns, column-column comparisons,
// string predicates, !=) widen to (-∞, +∞) rather than guess — so pruning
// can only skip blocks with zero matching rows and never changes the
// selection vector (pinned by TestZoneSkipPreservesSelection).

// Covered blocks are the other side of the same analysis: when the
// predicate is a pure AND of column/literal comparisons, its ranges are
// exact, and an admitted block whose every constrained column's envelope
// lies inside that column's range satisfies the predicate on every row. The
// scans then skip evaluating it there, so its columns are not decoded for
// it, and the exact operator reads an ungrouped MIN, MAX or COUNT off the
// envelope and row count (exact.go). An envelope vouches for its block only
// when no NaN can hide from it and int64 values stay within ±2^53; anything
// else leaves the block partial, which costs a decode and never an answer
// bit (pinned by TestCoveredBlocksMatchDecoded).

// colRange is the feasible interval for one column: lo < x < hi with the
// strictness flags controlling whether the endpoints themselves survive.
type colRange struct {
	lo, hi             float64
	loStrict, hiStrict bool
}

func fullRange() colRange {
	return colRange{lo: math.Inf(-1), hi: math.Inf(1)}
}

// intersect narrows r by o (AND of two constraints).
func (r colRange) intersect(o colRange) colRange {
	out := r
	if o.lo > out.lo || (o.lo == out.lo && o.loStrict) {
		out.lo, out.loStrict = o.lo, o.loStrict || (o.lo == out.lo && out.loStrict)
	}
	if o.hi < out.hi || (o.hi == out.hi && o.hiStrict) {
		out.hi, out.hiStrict = o.hi, o.hiStrict || (o.hi == out.hi && out.hiStrict)
	}
	return out
}

// hull widens r to cover both r and o (OR of two constraints).
func (r colRange) hull(o colRange) colRange {
	out := r
	if o.lo < out.lo {
		out.lo, out.loStrict = o.lo, o.loStrict
	} else if o.lo == out.lo {
		out.loStrict = out.loStrict && o.loStrict
	}
	if o.hi > out.hi {
		out.hi, out.hiStrict = o.hi, o.hiStrict
	} else if o.hi == out.hi {
		out.hiStrict = out.hiStrict && o.hiStrict
	}
	return out
}

// excludes reports whether a block with envelope [mn, mx] provably contains
// no value in the range. NaN envelopes (corrupt data) compare false on
// every branch and are never skipped.
func (r colRange) excludes(mn, mx float64) bool {
	if mx < r.lo || (r.loStrict && mx <= r.lo) {
		return true
	}
	if mn > r.hi || (r.hiStrict && mn >= r.hi) {
		return true
	}
	return false
}

// holds reports whether every value of a block with envelope [mn, mx] lies
// in the range. NaN envelopes compare false and never hold.
func (r colRange) holds(mn, mx float64) bool {
	return (mn > r.lo || (mn == r.lo && !r.loStrict)) &&
		(mx < r.hi || (mx == r.hi && !r.hiStrict))
}

// predRanges derives per-column feasible intervals from a predicate. A nil
// map means "no usable constraint". The analysis handles conjunctions and
// disjunctions of comparisons between one bare column reference and one
// numeric literal; anything else contributes no constraint.
func predRanges(e sql.Expr) map[string]colRange {
	switch ex := e.(type) {
	case *sql.Binary:
		switch ex.Op {
		case "AND":
			l, r := predRanges(ex.L), predRanges(ex.R)
			if l == nil {
				return r
			}
			for col, rr := range r {
				if lr, ok := l[col]; ok {
					l[col] = lr.intersect(rr)
				} else {
					l[col] = rr
				}
			}
			return l
		case "OR":
			// A disjunction constrains a column only when BOTH branches do:
			// the unconstrained branch could match anything.
			l, r := predRanges(ex.L), predRanges(ex.R)
			if l == nil || r == nil {
				return nil
			}
			out := map[string]colRange{}
			for col, lr := range l {
				if rr, ok := r[col]; ok {
					out[col] = lr.hull(rr)
				}
			}
			if len(out) == 0 {
				return nil
			}
			return out
		case "=", "<", "<=", ">", ">=":
			col, lit, flipped := splitCmp(ex)
			if col == "" {
				return nil
			}
			op := ex.Op
			if flipped {
				op = flipCmp(op)
			}
			r := fullRange()
			switch op {
			case "=":
				r.lo, r.hi = lit, lit
			case "<":
				r.hi, r.hiStrict = lit, true
			case "<=":
				r.hi = lit
			case ">":
				r.lo, r.loStrict = lit, true
			case ">=":
				r.lo = lit
			}
			return map[string]colRange{col: r}
		}
	}
	return nil
}

// pureConjunction reports whether e is an AND of comparisons (=, <, <=, >,
// >=) between one bare column and one numeric literal. Then predRanges
// describes e exactly rather than conservatively: a row whose columns lie in
// their ranges satisfies e.
func pureConjunction(e sql.Expr) bool {
	ex, ok := e.(*sql.Binary)
	if !ok {
		return false
	}
	switch ex.Op {
	case "AND":
		return pureConjunction(ex.L) && pureConjunction(ex.R)
	case "=", "<", "<=", ">", ">=":
		col, _, _ := splitCmp(ex)
		return col != ""
	}
	return false
}

// splitCmp extracts (column, literal) from a comparison where one side is a
// bare column reference and the other a numeric literal, reporting whether
// the column was on the right (so the operator must flip).
func splitCmp(ex *sql.Binary) (col string, lit float64, flipped bool) {
	if c, ok := ex.L.(*sql.ColumnRef); ok {
		if l, ok := ex.R.(*sql.Literal); ok && !l.IsStr {
			return c.Name, l.Num, false
		}
	}
	if c, ok := ex.R.(*sql.ColumnRef); ok {
		if l, ok := ex.L.(*sql.Literal); ok && !l.IsStr {
			return c.Name, l.Num, true
		}
	}
	return "", 0, false
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // "=" is symmetric
}

// zoneSkip combines ranges, pred's predRanges, with tbl's zone maps into
// pred's zone-map admission: skip marks the blocks no row of which can
// satisfy pred (skipped of them), and covered the blocks skip admits on
// which pred holds for every row — pred is a pure conjunction, and each
// constrained column's envelope vouches for the block and lies inside the
// column's range. A nil list marks no block, as when the table has no zone
// maps or ranges is empty.
func zoneSkip(tbl *table.Table, pred sql.Expr, ranges map[string]colRange) (skip, covered []bool, skipped int64) {
	z := tbl.Zones()
	if z == nil || len(ranges) == 0 {
		return nil, nil, 0
	}
	type constraint struct {
		r   colRange
		col table.Column
		cz  table.ColumnZones
	}
	cons := make([]constraint, 0, len(ranges))
	coverable := pureConjunction(pred)
	for name, r := range ranges {
		idx := tbl.Schema().Index(name)
		cz, ok := z.Column(idx)
		if !ok { // an unknown or string column: it cannot vouch
			coverable = false
			continue
		}
		cons = append(cons, constraint{r, tbl.Column(idx), cz})
	}
	nb := z.NumBlocks()
	for b := range nb {
		excluded, holds := false, coverable
		for _, c := range cons {
			mn, mx := c.cz.Mins[b], c.cz.Maxs[b]
			if c.r.excludes(mn, mx) {
				excluded = true
				break
			}
			holds = holds && c.r.holds(mn, mx) && vouches(c.col, b, mn, mx)
		}
		switch {
		case excluded:
			if skip == nil {
				skip = make([]bool, nb)
			}
			skip[b] = true
			skipped++
		case holds:
			if covered == nil {
				covered = make([]bool, nb)
			}
			covered[b] = true
		}
	}
	return skip, covered, skipped
}

// ExtremeDecode predicts, from st's block table alone, how many column
// blocks a scan answering def on st decodes. It answers for the queries the
// exact operator can fold from envelopes — ungrouped, every aggregate MIN or
// MAX of a bare numeric column, and a predicate that type-checks — and ok is
// false for any other def. It is the cost the engine compares to choose the
// exact plan over a sample (DESIGN.md §35).
//
// Either way the count is blocks times the columns the query names. On a
// sample (PopRows > 0) the scan reads them on every block the zone maps
// admit. On the full table the exact operator reads them at most on the
// admitted blocks it cannot fold from their envelopes (foldEnvelopes): those
// the predicate does not cover, and those whose input envelopes cannot stand
// for their rows. A block counts as covered only when every column the
// predicate constrains is int64, whose envelope vouches for its block on any
// codec, where a float64 envelope vouches only as its codec says. So the
// prediction reads envelopes, never a codec, and is the same on every
// backing.
func ExtremeDecode(st *StoredTable, def *plan.QueryDef) (blocks int, ok bool) {
	tbl := st.Data
	schema := tbl.Schema()
	if len(def.GroupBy) > 0 {
		return 0, false
	}
	read := map[int]bool{}
	inputs := make([]int, 0, len(def.Aggs))
	for _, a := range def.Aggs {
		ref, isRef := a.Input.(*sql.ColumnRef)
		if (a.Kind != estimator.Min && a.Kind != estimator.Max) || !isRef {
			return 0, false
		}
		idx := schema.Index(ref.Name)
		if idx < 0 || schema[idx].Type == table.String {
			return 0, false
		}
		inputs = append(inputs, idx)
		read[idx] = true
	}
	if def.Where != nil && checkPredicate(def.Where, tbl) != nil {
		return 0, false
	}
	var skip, covered []bool
	intCover := true
	if def.Where != nil {
		sql.EachColumn(def.Where, func(name string) { read[schema.Index(name)] = true })
		ranges := predRanges(def.Where)
		for name := range ranges {
			intCover = intCover && schema[schema.Index(name)].Type == table.Int64
		}
		skip, covered, _ = zoneSkip(tbl, def.Where, ranges)
	}
	z := tbl.Zones()
	folds := func(b int) bool {
		if z == nil || def.Where != nil && !(intCover && isCovered(covered, b*table.ZoneBlockRows)) {
			return false
		}
		for _, ci := range inputs {
			cz, ok := z.Column(ci)
			if !ok {
				return false
			}
			mn, mx := cz.Mins[b], cz.Maxs[b]
			if math.IsNaN(mn) || math.IsNaN(mx) || schema[ci].Type == table.Int64 && !exactInts(mn, mx) {
				return false
			}
		}
		return true
	}
	for b := 0; b*table.ZoneBlockRows < tbl.NumRows(); b++ {
		if (b >= len(skip) || !skip[b]) && (st.PopRows > 0 || !folds(b)) {
			blocks++
		}
	}
	return blocks * len(read), true
}

// maxExactInt is 2^53: past it, int64 values do not all survive float64.
const maxExactInt = 1 << 53

// vouches reports whether block b's envelope [mn, mx] of column c bounds
// every value the block holds: no NaN can hide from it, and an int64
// column's values stay within ±2^53, where float64 holds each exactly.
func vouches(c table.Column, b int, mn, mx float64) bool {
	if c.Type() == table.Int64 {
		return exactInts(mn, mx)
	}
	return !table.HidesNaN(c, b)
}

// exactInts reports whether an int64 envelope lies within ±2^53.
func exactInts(mn, mx float64) bool { return mn >= -maxExactInt && mx <= maxExactInt }
