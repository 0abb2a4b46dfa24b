package plan

import (
	"fmt"
	"strings"

	"repro/internal/estimator"
	"repro/internal/sql"
)

// QueryDef is the analyzed form of a SELECT: which table, which filter,
// which aggregates, which grouping — the input to planning.
type QueryDef struct {
	Table   string
	Where   sql.Expr
	Aggs    []AggSpec
	GroupBy []string
}

// AggSpec describes one aggregate output of a query.
type AggSpec struct {
	Kind estimator.AggKind
	// Pct is the percentile level for Kind == Percentile.
	Pct float64
	// UDFName names the registered UDF for Kind == UDF.
	UDFName string
	// Input is the argument expression (nil for COUNT(*)).
	Input sql.Expr
	// Alias is the output column name.
	Alias string
}

// Label renders the aggregate for EXPLAIN. It omits the alias.
func (a AggSpec) Label() string {
	arg := "*"
	if a.Input != nil {
		arg = a.Input.String()
	}
	name := a.Kind.String()
	if a.Kind == estimator.UDF {
		name = a.UDFName
	}
	if a.Kind == estimator.Percentile {
		return fmt.Sprintf("%s(%s, %g)", name, arg, a.Pct)
	}
	return name + "(" + arg + ")"
}

// Analyze validates a parsed SELECT against the engine's supported shape
// and extracts a QueryDef. isUDF reports whether a function name is a
// registered user-defined aggregate.
func Analyze(sel *sql.Select, isUDF func(string) bool) (*QueryDef, error) {
	if isUDF == nil {
		isUDF = func(string) bool { return false }
	}
	def := &QueryDef{
		Table:   sel.From,
		Where:   sel.Where,
		GroupBy: append([]string(nil), sel.GroupBy...),
	}
	groupSet := map[string]bool{}
	for _, g := range sel.GroupBy {
		groupSet[strings.ToLower(g)] = true
	}
	for _, item := range sel.Items {
		switch e := item.Expr.(type) {
		case *sql.ColumnRef:
			if !groupSet[strings.ToLower(e.Name)] {
				return nil, fmt.Errorf("plan: non-aggregate column %q must appear in GROUP BY", e.Name)
			}
			// Grouping columns pass through; not an aggregate output.
		case *sql.FuncCall:
			spec, err := analyzeAggregate(e, item.Alias, isUDF)
			if err != nil {
				return nil, err
			}
			def.Aggs = append(def.Aggs, spec)
		default:
			return nil, fmt.Errorf("plan: unsupported select item %s (want aggregate or grouping column)", item.Expr)
		}
	}
	if len(def.Aggs) == 0 {
		return nil, fmt.Errorf("plan: query computes no aggregate")
	}
	return def, nil
}

func analyzeAggregate(call *sql.FuncCall, alias string, isUDF func(string) bool) (AggSpec, error) {
	spec := AggSpec{Alias: alias}
	if spec.Alias == "" {
		spec.Alias = strings.ToLower(call.Name)
	}
	argExpr := func(i int) (sql.Expr, error) {
		if i >= len(call.Args) {
			return nil, fmt.Errorf("plan: %s missing argument %d", call.Name, i+1)
		}
		return call.Args[i], nil
	}
	switch call.Name {
	case "AVG", "SUM", "MIN", "MAX", "VARIANCE", "STDEV":
		if len(call.Args) != 1 {
			return AggSpec{}, fmt.Errorf("plan: %s takes exactly one argument", call.Name)
		}
		arg, err := argExpr(0)
		if err != nil {
			return AggSpec{}, err
		}
		if _, isStar := arg.(*sql.Star); isStar {
			return AggSpec{}, fmt.Errorf("plan: %s(*) is not meaningful", call.Name)
		}
		spec.Input = arg
		spec.Kind = map[string]estimator.AggKind{
			"AVG": estimator.Avg, "SUM": estimator.Sum,
			"MIN": estimator.Min, "MAX": estimator.Max,
			"VARIANCE": estimator.Variance, "STDEV": estimator.Stdev,
		}[call.Name]
		return spec, nil
	case "COUNT":
		if len(call.Args) != 1 {
			return AggSpec{}, fmt.Errorf("plan: COUNT takes exactly one argument")
		}
		spec.Kind = estimator.Count
		if _, isStar := call.Args[0].(*sql.Star); !isStar {
			spec.Input = call.Args[0]
		}
		return spec, nil
	case "PERCENTILE":
		if len(call.Args) != 2 {
			return AggSpec{}, fmt.Errorf("plan: PERCENTILE takes (column, level)")
		}
		lit, ok := call.Args[1].(*sql.Literal)
		if !ok || lit.IsStr || lit.Num <= 0 || lit.Num >= 1 {
			return AggSpec{}, fmt.Errorf("plan: PERCENTILE level must be a literal in (0,1)")
		}
		spec.Kind = estimator.Percentile
		spec.Pct = lit.Num
		spec.Input = call.Args[0]
		return spec, nil
	default:
		if !isUDF(call.Name) {
			return AggSpec{}, fmt.Errorf("plan: unknown function %s", call.Name)
		}
		if len(call.Args) != 1 {
			return AggSpec{}, fmt.Errorf("plan: UDF %s takes exactly one argument", call.Name)
		}
		spec.Kind = estimator.UDF
		spec.UDFName = call.Name
		spec.Input = call.Args[0]
		return spec, nil
	}
}

// ClosedFormOK reports whether every aggregate in the query admits a
// closed-form error estimate (QSet-1 membership at the SQL level).
func (d *QueryDef) ClosedFormOK() bool {
	for _, a := range d.Aggs {
		q := estimator.Query{Kind: a.Kind}
		if !q.ClosedFormApplicable() {
			return false
		}
	}
	return true
}
