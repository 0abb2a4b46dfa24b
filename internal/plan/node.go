// Package plan builds and rewrites logical query plans for the error
// estimation pipeline of §5. A plan is a small operator tree:
//
//	Scan → Filter/Project → [Resample] → Aggregate
//	     → [Bootstrap] → [Diagnostic]
//
// Both §5.3 rewrites are always applied:
//
//   - Scan consolidation (§5.3.1): one scan computes the plain answer, all
//     K bootstrap resample aggregates and all diagnostic subsample
//     aggregates, by augmenting each tuple with multiple weight columns.
//
//   - Operator pushdown (§5.3.2): the Poissonized resampling operator is
//     inserted after the longest prefix of pass-through operators (filters,
//     projections) rather than directly above the scan, so weights are
//     never generated for rows a filter will discard.
//
// The §5.2 baseline they replace — one UNION ALL subquery, with its own
// scan, per resample — exists only as the cluster simulator's cost model
// (internal/cluster), where the Fig. 7–9 experiments compare the two.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/estimator"
	"repro/internal/sql"
)

// Node is a logical plan operator.
type Node interface {
	// Child returns the input operator (nil for leaves).
	Child() Node
	// Label renders the operator for EXPLAIN output.
	Label() string
}

// Scan reads a stored sample table.
type Scan struct {
	Table string
}

// Child implements Node.
func (*Scan) Child() Node { return nil }

// Label implements Node.
func (s *Scan) Label() string { return "Scan(" + s.Table + ")" }

// Filter drops rows failing the predicate. Filters are pass-through
// operators in the paper's sense: they do not change the statistical
// properties of the columns being aggregated, only which rows survive.
type Filter struct {
	Input Node
	Pred  sql.Expr
}

// Child implements Node.
func (f *Filter) Child() Node { return f.Input }

// Label implements Node.
func (f *Filter) Label() string { return "Filter(" + f.Pred.String() + ")" }

// Project computes the aggregation input expression(s). Also pass-through.
type Project struct {
	Input Node
	Exprs []sql.Expr
}

// Child implements Node.
func (p *Project) Child() Node { return p.Input }

// Label implements Node.
func (p *Project) Label() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// Resample is the Poissonized resampling operator: it augments each tuple
// with weight columns — K bootstrap weights, plus P weights per diagnostic
// subsample size (Fig. 6(a)).
type Resample struct {
	Input Node
	// K is the number of bootstrap resamples (weight columns).
	K int
	// DiagSizes and DiagP describe the diagnostic weight groups: for each
	// size, P subsample-resample weight sets. Empty without a diagnostic.
	DiagSizes []int
	DiagP     int
}

// Child implements Node.
func (r *Resample) Child() Node { return r.Input }

// Label implements Node.
func (r *Resample) Label() string {
	label := fmt.Sprintf("PoissonizedResample(K=%d", r.K)
	if len(r.DiagSizes) > 0 {
		label += fmt.Sprintf(", diag=%v×%d", r.DiagSizes, r.DiagP)
	}
	return label + ")"
}

// WeightColumns returns the total number of weight columns this operator
// attaches per tuple — the quantity scan consolidation trades memory for.
func (r *Resample) WeightColumns() int {
	return r.K + len(r.DiagSizes)*r.DiagP
}

// AggSpec describes one aggregate output of an Aggregate node.
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

// Label renders the aggregate.
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

// Aggregate evaluates the aggregates, per group when GroupBy is set. When
// its input carries weight columns the aggregate kernels run once per
// weight set, producing resample aggregates (the §5.3.1 "modify all
// pre-existing aggregate functions to directly operate on weighted data").
type Aggregate struct {
	Input   Node
	Aggs    []AggSpec
	GroupBy []string
	// Weighted marks that the aggregate consumes resample weights.
	Weighted bool
}

// Child implements Node.
func (a *Aggregate) Child() Node { return a.Input }

// Label implements Node.
func (a *Aggregate) Label() string {
	parts := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		parts[i] = s.Label()
	}
	out := "Aggregate(" + strings.Join(parts, ", ")
	if len(a.GroupBy) > 0 {
		out += " GROUP BY " + strings.Join(a.GroupBy, ", ")
	}
	if a.Weighted {
		out += " [weighted]"
	}
	return out + ")"
}

// Bootstrap consumes the resample aggregates and emits the error estimate
// (one of the two new logical operators of §5.3.1).
type Bootstrap struct {
	Input Node
	K     int
	Alpha float64
}

// Child implements Node.
func (b *Bootstrap) Child() Node { return b.Input }

// Label implements Node.
func (b *Bootstrap) Label() string {
	return fmt.Sprintf("Bootstrap(K=%d, α=%g)", b.K, b.Alpha)
}

// Diagnostic consumes subsample point estimates and error estimates and
// emits the accept/reject verdict (the second new logical operator).
type Diagnostic struct {
	Input Node
	Sizes []int
	P     int
	// VerdictFirst tells the executor that the caller re-answers every
	// rejected aggregate exactly, so it skips the bootstrap of an
	// aggregate this operator rejects (see Options.VerdictFirst).
	VerdictFirst bool
}

// Child implements Node.
func (d *Diagnostic) Child() Node { return d.Input }

// Label implements Node.
func (d *Diagnostic) Label() string {
	label := fmt.Sprintf("Diagnostic(sizes=%v, p=%d", d.Sizes, d.P)
	if d.VerdictFirst {
		label += ", verdict-first"
	}
	return label + ")"
}

// Explain renders the plan as an indented tree, root first.
func Explain(root Node) string {
	var sb strings.Builder
	depth := 0
	for n := root; n != nil; n = n.Child() {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Label())
		sb.WriteString("\n")
		depth++
	}
	return sb.String()
}

// Walk visits the chain from root to leaf, calling fn on each node.
func Walk(root Node, fn func(Node)) {
	for n := root; n != nil; n = n.Child() {
		fn(n)
	}
}

// FindScan returns the Scan at the bottom of the chain, or nil.
func FindScan(root Node) *Scan {
	var out *Scan
	Walk(root, func(n Node) {
		if s, ok := n.(*Scan); ok {
			out = s
		}
	})
	return out
}

// FindResample returns the Resample node in the chain, or nil.
func FindResample(root Node) *Resample {
	var out *Resample
	Walk(root, func(n Node) {
		if r, ok := n.(*Resample); ok {
			out = r
		}
	})
	return out
}
