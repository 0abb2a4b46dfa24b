package exec

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/table"
)

// evalNumeric evaluates a numeric row expression over the selected rows of
// tbl, returning one float64 per selected row. sel == nil means all rows.
// The result may share the table's storage and must be treated as
// read-only.
func evalNumeric(e sql.Expr, tbl *table.Table, sel []int) ([]float64, error) {
	n := tbl.NumRows()
	if sel != nil {
		n = len(sel)
	}
	v, err := evalExpr(e, tbl, sel, n, nil)
	if err != nil {
		return nil, err
	}
	if v.isStr || v.bools != nil {
		return nil, fmt.Errorf("exec: expression %s is not numeric", e)
	}
	if v.scalar {
		out := make([]float64, n)
		for i := range out {
			out[i] = v.numS
		}
		return out, nil
	}
	return v.nums, nil
}

// EvalPredicate evaluates a boolean predicate over all rows of tbl in one
// pass and returns the selection vector of matching row indices: the plain
// reference the block-walking scans are compared against.
func EvalPredicate(e sql.Expr, tbl *table.Table) ([]int, error) {
	n := tbl.NumRows()
	sc := &scratch{}
	defer sc.release()
	v, err := evalExpr(e, tbl, nil, n, sc)
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
