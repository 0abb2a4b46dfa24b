package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/estimator"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/table"
)

// Ceiling bounds the filtered rows of every group of a GROUP BY on a
// sample: no group holds more than Rows of the sample's rows that can
// satisfy the predicate (KeyCeiling).
type Ceiling struct {
	// Rows is the most rows one key holds among the rows whose Column value
	// lies in Window, or among all the sample's rows when Column is "".
	Rows int
	// Column names the range column whose window gave Rows, as the
	// predicate spells it, and Window renders that window: "[30, 38]".
	Column, Window string
}

// KeyCeiling is the most rows of st's table that one value of the column
// col holds among the rows pred can select. A row pred selects has every
// column predRanges constrains inside that column's interval (predRanges
// states a necessary condition), so the count over one such interval bounds
// every group's filtered rows, whatever pred's other conjuncts are. The
// ceiling is the smallest of the whole table's and each numeric range
// column's window count; a range column with more than table.ZoneBlockRows
// distinct values gives no window count.
//
// Both counts are memoized on st, so a ceiling costs one walk per column
// (the whole table's) and per (col, range column) pair, on the first call
// that needs it, and then two binary searches per key. Each walk checks the
// columns' payloads first, like any scan. A call racing the first counts
// too and gets the same answer.
func (st *StoredTable) KeyCeiling(ctx context.Context, col string, pred sql.Expr, cfg Config) (Ceiling, error) {
	whole, err := st.wholeCeiling(ctx, col, cfg)
	if err != nil {
		return Ceiling{}, err
	}
	out := Ceiling{Rows: whole}
	schema := st.Data.Schema()
	key := schema.Index(col)
	ranges := predRanges(pred)
	names := make([]string, 0, len(ranges))
	for name := range ranges {
		if i := schema.Index(name); i >= 0 && schema[i].Type != table.String {
			names = append(names, name)
		}
	}
	// Map order is random: the first of equal ceilings, in schema order,
	// names the window.
	slices.SortFunc(names, func(a, b string) int { return schema.Index(a) - schema.Index(b) })
	for _, name := range names {
		counts, err := st.rangeCounts(ctx, key, schema.Index(name))
		if err != nil {
			return Ceiling{}, err
		}
		r := ranges[name]
		if n, ok := counts.most(r); ok && n < out.Rows {
			out = Ceiling{Rows: n, Column: name, Window: r.String()}
		}
	}
	return out, nil
}

// wholeCeiling is the most rows of st's table that one value of the column
// holds. The first call per column counts the groups with the exact operator
// (COUNT(*) … GROUP BY col, on the calling goroutine).
func (st *StoredTable) wholeCeiling(ctx context.Context, col string, cfg Config) (int, error) {
	idx := st.Data.Schema().Index(col)
	if n, ok := st.ceilings.Load(idx); ok {
		return n.(int), nil
	}
	def := &plan.QueryDef{GroupBy: []string{col},
		Aggs: []plan.AggSpec{{Kind: estimator.Count, Alias: "COUNT(*)"}}}
	res, err := runExact(ctx, def, &StoredTable{Data: st.Data}, nil, cfg)
	if err != nil {
		return 0, err
	}
	ceiling := 0
	for _, g := range res.Groups {
		ceiling = max(ceiling, int(g.Aggs[0].Value))
	}
	st.ceilings.Store(idx, ceiling)
	return ceiling, nil
}

// rangeCounts is the memo of one (GROUP BY column, range column) pair: the
// range column's distinct non-NaN values, ascending, and for each key its
// rows over them as prefix sums. A key keeps an entry only for the values it
// holds, so the memo holds at most min(keys × values, rows) counts. A nil
// *rangeCounts is the memo of a range column with too many distinct values.
type rangeCounts struct {
	values []float64
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
	rc := &rangeCounts{values: make([]float64, 0, len(seen)), keys: make([]keyPrefix, len(kr.keys.names))}
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
	lo := sort.Search(len(rc.values), func(i int) bool {
		return rc.values[i] > r.lo || rc.values[i] == r.lo && !r.loStrict
	})
	hi := sort.Search(len(rc.values), func(i int) bool {
		return rc.values[i] > r.hi || rc.values[i] == r.hi && r.hiStrict
	})
	if hi <= lo {
		return 0, true
	}
	for _, k := range rc.keys {
		n = max(n, k.below(hi)-k.below(lo))
	}
	return n, true
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
