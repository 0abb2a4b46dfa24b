package exec

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/table"
)

// evalNumeric evaluates a numeric row expression over every row of tbl and
// returns the values of the selected rows, one float64 per row of sel
// (sel == nil: every row). Without a selection the result may share the
// table's storage and must be treated as read-only.
func evalNumeric(e sql.Expr, tbl *table.Table, sel []int) ([]float64, error) {
	n := tbl.NumRows()
	v, err := evalExpr(e, tbl, n, nil)
	if err != nil {
		return nil, err
	}
	if v.isStr || v.bools != nil {
		return nil, fmt.Errorf("exec: expression %s is not numeric", e)
	}
	all := v.nums
	if v.scalar {
		all = make([]float64, n)
		for i := range all {
			all[i] = v.numS
		}
	}
	if sel == nil {
		return all, nil
	}
	out := make([]float64, len(sel))
	for i, r := range sel {
		out[i] = all[r]
	}
	return out, nil
}

// EvalPredicate evaluates a boolean predicate over all rows of tbl in one
// pass and returns the selection vector of matching row indices: the plain
// reference the block-walking scans are compared against.
func EvalPredicate(e sql.Expr, tbl *table.Table) ([]int, error) {
	n := tbl.NumRows()
	sc := &scratch{}
	defer sc.release()
	v, err := evalExpr(e, tbl, n, sc)
	if err != nil {
		return nil, err
	}
	if v.bools == nil {
		return nil, fmt.Errorf("exec: WHERE expression %s is not boolean", e)
	}
	sel := make([]int, 0, n/2)
	for i, keep := range v.bools {
		if keep {
			sel = append(sel, i)
		}
	}
	return sel, nil
}
