package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/estimator"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/table"
)

// Ceiling bounds the filtered rows of every group of a query on a sample: no
// group holds more than Rows of the sample's rows that can satisfy the
// predicate (KeyCeiling).
type Ceiling struct {
	// Rows is the most rows one group can hold: the most one key holds in
	// the whole sample, or among the rows whose Column value lies in Window.
	// An ungrouped query's one group holds at most the sample's rows.
	Rows int
	// Column names the column whose restriction gave Rows, as the predicate
	// spells it ("" when none did), and Window renders that restriction after
	// the column's name: a range column's window, "in [30, 38]", or a string
	// column's equality, "= 'BOS'" or "in ('BOS', 'SF')", followed by
	// " and Day in [0, 8]" when a window narrowed its count.
	Column, Window string
}

// KeyCeiling is the most rows of st's table that one value of the column
// col holds among the rows pred can select; with col "", the rows of an
// ungrouped query's one group. A row pred selects has every column predRanges
// constrains inside that column's interval, and every string column
// predEquals constrains at one of that column's values (both state a
// necessary condition), so the count over one such restriction bounds every
// group's filtered rows, whatever pred's other conjuncts are:
//
//   - a numeric range column's window bounds each key by its rows there;
//   - an equality bounds every group by the sum of its values' rows, or by
//     the most of them when it restricts col itself; and with a window on a
//     range column, by their rows inside that window.
//
// The ceiling is the smallest of these and, under a GROUP BY, of the whole
// table's most rows per key. A range column with more than
// table.ZoneBlockRows distinct values gives no window count. An ungrouped
// query with no equality reads no count.
//
// The counts are memoized on st, so a ceiling costs one walk per column (the
// whole table's) and per (key or equality column, range column) pair, on the
// first call that needs it, and then map lookups and binary searches. Each
// walk checks the columns' payloads first, like any scan. A call racing the
// first counts too and gets the same answer.
func (st *StoredTable) KeyCeiling(ctx context.Context, col string, pred sql.Expr, cfg Config) (Ceiling, error) {
	schema := st.Data.Schema()
	eqs := predEquals(pred)
	equals := readable(schema, eqs, func(t table.Type) bool { return t == table.String })
	out := Ceiling{Rows: st.Data.NumRows()}
	if col == "" && len(equals) == 0 {
		return out, nil
	}
	ranges := predRanges(pred)
	windows := readable(schema, ranges, func(t table.Type) bool { return t != table.String })
	if col != "" {
		whole, err := st.wholeCounts(ctx, col, cfg)
		if err != nil {
			return Ceiling{}, err
		}
		out.Rows = whole.most
		key := schema.Index(col)
		for _, name := range windows {
			counts, err := st.rangeCounts(ctx, key, schema.Index(name))
			if err != nil {
				return Ceiling{}, err
			}
			r := ranges[name]
			if n, ok := counts.most(r); ok && n < out.Rows {
				out = Ceiling{Rows: n, Column: name, Window: "in " + r.String()}
			}
		}
	}
	for _, name := range equals {
		values := eqs[name]
		eq := schema.Index(name)
		// Restricting the GROUP BY column itself leaves each group one value.
		most := col != "" && eq == schema.Index(col)
		whole, err := st.wholeCounts(ctx, name, cfg)
		if err != nil {
			return Ceiling{}, err
		}
		restriction := renderValues(values)
		if n := combine(values, most, func(v string) int { return whole.rows[v] }); n < out.Rows {
			out = Ceiling{Rows: n, Column: name, Window: restriction}
		}
		for _, rng := range windows {
			counts, err := st.rangeCounts(ctx, eq, schema.Index(rng))
			if err != nil {
				return Ceiling{}, err
			}
			if counts == nil {
				continue
			}
			r := ranges[rng]
			if n := combine(values, most, func(v string) int { return counts.rows(v, r) }); n < out.Rows {
				out = Ceiling{Rows: n, Column: name, Window: restriction + " and " + rng + " in " + r.String()}
			}
		}
	}
	return out, nil
}

// readable is the names of m whose column the schema holds with a type ok
// admits, in schema order: map order is random, and the first of equal
// ceilings names the restriction.
func readable[V any](schema table.Schema, m map[string]V, ok func(table.Type) bool) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		if i := schema.Index(name); i >= 0 && ok(schema[i].Type) {
			names = append(names, name)
		}
	}
	slices.SortFunc(names, func(a, b string) int {
		return cmp.Or(schema.Index(a)-schema.Index(b), strings.Compare(a, b))
	})
	return names
}

// combine bounds the rows of a group restricted to values: the sum of each
// value's rows, or the most of them when the group holds one value.
func combine(values []string, most bool, rows func(string) int) int {
	n := 0
	for _, v := range values {
		if most {
			n = max(n, rows(v))
		} else {
			n += rows(v)
		}
	}
	return n
}

// renderValues renders an equality's values: "= 'BOS'", "in ('BOS', 'SF')".
func renderValues(values []string) string {
	lits := make([]string, len(values))
	for i, v := range values {
		lits[i] = (&sql.Literal{Str: v, IsStr: true}).String()
	}
	if len(lits) == 1 {
		return "= " + lits[0]
	}
	return "in (" + strings.Join(lits, ", ") + ")"
}

// predEquals derives, per column, the string values a row must hold in it to
// satisfy the predicate, sorted and distinct: "col = 'X'" (either way round)
// gives {X}; AND intersects the values of a column both sides restrict, and
// OR unites them, restricting only a column both sides restrict, as
// predRanges does. A nil map restricts nothing; an empty set of values, from
// an AND of two different values, holds no row.
func predEquals(e sql.Expr) map[string][]string {
	ex, ok := e.(*sql.Binary)
	if !ok {
		return nil
	}
	switch ex.Op {
	case "AND":
		l, r := predEquals(ex.L), predEquals(ex.R)
		if l == nil {
			return r
		}
		for col, rv := range r {
			if lv, ok := l[col]; ok {
				l[col] = slices.DeleteFunc(lv, func(v string) bool { return !slices.Contains(rv, v) })
			} else {
				l[col] = rv
			}
		}
		return l
	case "OR":
		l, r := predEquals(ex.L), predEquals(ex.R)
		var out map[string][]string
		for col, lv := range l {
			if rv, ok := r[col]; ok {
				if out == nil {
					out = map[string][]string{}
				}
				both := slices.Concat(lv, rv)
				slices.Sort(both)
				out[col] = slices.Compact(both)
			}
		}
		return out
	case "=":
		c, cok := ex.L.(*sql.ColumnRef)
		l, lok := ex.R.(*sql.Literal)
		if !cok || !lok {
			c, cok = ex.R.(*sql.ColumnRef)
			l, lok = ex.L.(*sql.Literal)
		}
		if cok && lok && l.IsStr {
			return map[string][]string{c.Name: {l.Str}}
		}
	}
	return nil
}

// keyCounts is the whole-table memo of one column: each value's rows, keyed
// as a GROUP BY keys its groups, and the most of them.
type keyCounts struct {
	rows map[string]int
	most int
}

// wholeCounts returns the whole-table memo of the column, counting it on the
// first call with the exact operator (COUNT(*) … GROUP BY col, on the
// calling goroutine).
func (st *StoredTable) wholeCounts(ctx context.Context, col string, cfg Config) (*keyCounts, error) {
	idx := st.Data.Schema().Index(col)
	if kc, ok := st.ceilings.Load(idx); ok {
		return kc.(*keyCounts), nil
	}
	def := &plan.QueryDef{GroupBy: []string{col},
		Aggs: []plan.AggSpec{{Kind: estimator.Count, Alias: "COUNT(*)"}}}
	res, err := runExact(ctx, def, &StoredTable{Data: st.Data}, nil, cfg)
	if err != nil {
		return nil, err
	}
	kc := &keyCounts{rows: make(map[string]int, len(res.Groups))}
	for _, g := range res.Groups {
		n := int(g.Aggs[0].Value)
		kc.rows[g.Key] = n
		kc.most = max(kc.most, n)
	}
	got, _ := st.ceilings.LoadOrStore(idx, kc)
	return got.(*keyCounts), nil
}

// rangeCounts is the memo of one (key column, range column) pair — the key
// column a GROUP BY's or an equality's: the range column's distinct non-NaN
// values, ascending, and for each key, numbered by its name in ids, its rows
// over them as prefix sums. A key keeps an entry only for the values it
// holds, so the memo holds at most min(keys × values, rows) counts. A nil
// *rangeCounts is the memo of a range column with too many distinct values.
type rangeCounts struct {
	values []float64
	ids    map[string]int32
	keys   []keyPrefix
}

// keyPrefix is one key's prefix sums: rows[i] of its rows have a value of
// rank at most ranks[i], ranks ascending.
type keyPrefix struct {
	ranks []uint16
	rows  []int32
}

// maxRangeValues is the most distinct values a range column may have and
// still be counted: one zone block's rows.
const maxRangeValues = table.ZoneBlockRows

// rangePair keys StoredTable.ranges.
type rangePair struct{ key, rng int }

// rangeCounts returns the memo of the pair of columns key and rng of st's
// table, counting it on the first call.
func (st *StoredTable) rangeCounts(ctx context.Context, key, rng int) (*rangeCounts, error) {
	pair := rangePair{key, rng}
	if rc, ok := st.ranges.Load(pair); ok {
		return rc.(*rangeCounts), nil
	}
	rc, err := countRanges(ctx, st.Data, key, rng)
	if err != nil {
		return nil, err
	}
	got, _ := st.ranges.LoadOrStore(pair, rc)
	return got.(*rangeCounts), nil
}

// countRanges walks tbl's columns key and rng once, numbering the keys as a
// GROUP BY does, and builds their rangeCounts; nil when rng holds more than
// maxRangeValues distinct values. The walk counts rows per (key, value)
// cell, so it holds at most min(keys × values, rows) cells and no per-row
// list.
func countRanges(ctx context.Context, tbl *table.Table, key, rng int) (*rangeCounts, error) {
	for _, c := range []int{key, rng} {
		if _, err := table.CheckColumn(tbl.Column(c)); err != nil {
			return nil, fmt.Errorf("exec: key ceiling of table: %w", err)
		}
	}
	schema := tbl.Schema()
	kr, err := newKeyReader(tbl, []string{schema[key].Name})
	if err != nil {
		return nil, err
	}
	ref := &sql.ColumnRef{Name: schema[rng].Name}
	seen := map[float64]int{}     // rng's distinct values, numbered on first sight
	cells := map[[2]int32]int32{} // rows per (key id, value number)
	var ids []int32
	sc := scratch{memo: make([]value, tbl.NumCols())}
	err = walkBlocks(ctx, 0, tbl.NumRows(), nil, &sc, func(row, end int) error {
		n := end - row
		if err := kr.read(tbl, n, &sc); err != nil {
			return err
		}
		v, err := evalExpr(ref, tbl, n, &sc)
		if err != nil {
			return err
		}
		ids = kr.number(nil, ids[:0])
		for i, x := range v.nums {
			if math.IsNaN(x) {
				continue // NaN satisfies no comparison
			}
			num, ok := seen[x]
			if !ok {
				if len(seen) == maxRangeValues {
					return errTooManyValues
				}
				num = len(seen)
				seen[x] = num
			}
			cells[[2]int32{ids[i], int32(num)}]++
		}
		return nil
	})
	switch {
	case err == errTooManyValues:
		return nil, nil
	case err != nil:
		return nil, err
	}
	rc := &rangeCounts{values: make([]float64, 0, len(seen)), ids: kr.keys.byStr,
		keys: make([]keyPrefix, len(kr.keys.names))}
	for x := range seen {
		rc.values = append(rc.values, x)
	}
	slices.Sort(rc.values)
	rank := make([]uint16, len(seen)) // by value number
	for r, x := range rc.values {
		rank[seen[x]] = uint16(r)
	}
	type cell struct {
		id   int32
		rank uint16
		rows int32
	}
	sorted := make([]cell, 0, len(cells))
	for c, rows := range cells {
		sorted = append(sorted, cell{c[0], rank[c[1]], rows})
	}
	slices.SortFunc(sorted, func(a, b cell) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.rank, b.rank))
	})
	for _, c := range sorted {
		k := &rc.keys[c.id]
		k.ranks = append(k.ranks, c.rank)
		k.rows = append(k.rows, c.rows+last(k.rows))
	}
	return rc, nil
}

// errTooManyValues stops countRanges's walk.
var errTooManyValues = fmt.Errorf("exec: more than %d distinct range values", maxRangeValues)

// last is the last of the prefix sums, 0 before the first.
func last(rows []int32) int32 {
	if len(rows) == 0 {
		return 0
	}
	return rows[len(rows)-1]
}

// most is the most rows one key holds whose value lies in r; ok is false on
// the memo of a column with too many values, which bounds nothing.
func (rc *rangeCounts) most(r colRange) (n int, ok bool) {
	if rc == nil {
		return 0, false
	}
	lo, hi := rc.span(r)
	for _, k := range rc.keys {
		n = max(n, k.within(lo, hi))
	}
	return n, true
}

// rows is the rows of the key named name whose value lies in r: 0 for a name
// the key column does not hold.
func (rc *rangeCounts) rows(name string, r colRange) int {
	id, ok := rc.ids[name]
	if !ok {
		return 0
	}
	return rc.keys[id].within(rc.span(r))
}

// span is the ranks of the values r holds, [lo, hi).
func (rc *rangeCounts) span(r colRange) (lo, hi int) {
	lo = sort.Search(len(rc.values), func(i int) bool {
		return rc.values[i] > r.lo || rc.values[i] == r.lo && !r.loStrict
	})
	hi = sort.Search(len(rc.values), func(i int) bool {
		return rc.values[i] > r.hi || rc.values[i] == r.hi && r.hiStrict
	})
	return lo, hi
}

// within is the key's rows with a value of rank in [lo, hi).
func (k keyPrefix) within(lo, hi int) int {
	if hi <= lo {
		return 0
	}
	return k.below(hi) - k.below(lo)
}

// below is the key's rows with a value of rank under r.
func (k keyPrefix) below(r int) int {
	i := sort.Search(len(k.ranks), func(i int) bool { return int(k.ranks[i]) >= r })
	return int(last(k.rows[:i]))
}

// String renders the range as an interval: "[30, 38]", "(-Inf, 45)".
func (r colRange) String() string {
	lb, rb := "[", "]"
	if r.loStrict || math.IsInf(r.lo, -1) {
		lb = "("
	}
	if r.hiStrict || math.IsInf(r.hi, 1) {
		rb = ")"
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return lb + f(r.lo) + ", " + f(r.hi) + rb
}
