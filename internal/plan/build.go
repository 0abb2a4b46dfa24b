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

// Query is the one translation of an aggregate into the θ its answer and
// its error estimate are made for (DESIGN.md §32), on a sample of sampleRows
// rows drawn from a table of popRows rows (popRows 0: the rows are the whole
// table). fn is the body of a UDF aggregate. Every error decision reads the
// result's ClosedFormApplicable: the planner's resample count, the bar the
// engine serves and the ξ the diagnostic validates.
//
// SUM and COUNT scale to the population. Ungrouped, they run over the whole
// sample with zeros where the filter fails and self-normalize (PopN).
// Grouped, each group sees only its own rows, so they scale by the fixed
// |D|/|S| (Scale), the same for every group.
func (a AggSpec) Query(popRows, sampleRows int, grouped bool, fn func(values, weights []float64) float64) estimator.Query {
	switch {
	case a.Kind == estimator.UDF:
		return estimator.Query{Kind: estimator.UDF, Fn: fn, FnName: a.UDFName}
	case (a.Kind == estimator.Sum || a.Kind == estimator.Count) && popRows > 0:
		if grouped {
			return estimator.Query{Kind: a.Kind, Scale: float64(popRows) / float64(sampleRows)}
		}
		return estimator.Query{Kind: a.Kind, PopN: popRows}
	default:
		return estimator.Query{Kind: a.Kind, Pct: a.Pct}
	}
}

// NeedsResamples reports whether some aggregate's error bar, on a sample of
// sampleRows rows drawn from popRows, is the bootstrap's: whether a plan
// for it needs K > 0.
func (d *QueryDef) NeedsResamples(popRows, sampleRows int) bool {
	for _, a := range d.Aggs {
		if !a.Query(popRows, sampleRows, len(d.GroupBy) > 0, nil).ClosedFormApplicable() {
			return true
		}
	}
	return false
}
