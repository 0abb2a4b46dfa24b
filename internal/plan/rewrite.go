package plan

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// Options selects which pipeline stages and which §5.3 optimizations a
// plan uses. The Fig. 8 ablations toggle ScanConsolidation and
// OperatorPushdown independently.
type Options struct {
	// BootstrapK is the number of bootstrap resamples (0 disables error
	// estimation entirely: plain approximate answer only).
	BootstrapK int
	// Alpha is the confidence level for error bars.
	Alpha float64
	// Diagnostics enables the diagnostic operator.
	Diagnostics bool
	// DiagSizes and DiagP configure the diagnostic ladder.
	DiagSizes []int
	DiagP     int
	// ScanConsolidation enables the §5.3.1 single-scan rewrite.
	ScanConsolidation bool
	// OperatorPushdown enables the §5.3.2 resampling-pushdown rewrite.
	OperatorPushdown bool
	// VerdictFirst declares that whoever runs the plan replaces each
	// aggregate the diagnostic rejects with an exact answer. The executor
	// then does not bootstrap a rejected aggregate — its K estimates would
	// be overwritten unread. Answers, error bars and verdicts of accepted
	// aggregates are unchanged: the diagnostic and the bootstrap draw from
	// independent RNG streams. No effect without Diagnostics.
	VerdictFirst bool
}

// DefaultOptions returns the fully optimized pipeline with the paper's
// parameters (K=100 resamples, p=100 subsamples at 3 sizes, α=0.95).
func DefaultOptions(sampleRows int) Options {
	b3 := sampleRows / 200
	if b3 < 4 {
		b3 = 4
	}
	return Options{
		BootstrapK:        100,
		Alpha:             0.95,
		Diagnostics:       true,
		DiagSizes:         []int{b3 / 4, b3 / 2, b3},
		DiagP:             100,
		ScanConsolidation: true,
		OperatorPushdown:  true,
	}
}

// Plan is a planned query: the operator tree plus the analyzed definition.
type Plan struct {
	Root Node
	Def  *QueryDef
	Opt  Options
}

// Explain renders the plan tree.
func (p *Plan) Explain() string { return Explain(p.Root) }

// Build plans the query with the given options. The returned tree always
// has the shape
//
//	Scan → [Resample?] → Filter? → Project → [Resample?] → Aggregate
//	   → Bootstrap? → Diagnostic?
//
// with the Resample placed according to OperatorPushdown and flagged
// according to ScanConsolidation.
func Build(def *QueryDef, opt Options) (*Plan, error) {
	if len(def.Aggs) == 0 {
		return nil, fmt.Errorf("plan: query has no aggregates")
	}
	if opt.BootstrapK < 0 {
		return nil, fmt.Errorf("plan: negative bootstrap K")
	}
	if opt.Alpha == 0 {
		opt.Alpha = 0.95
	}
	if opt.Diagnostics && (len(opt.DiagSizes) == 0 || opt.DiagP <= 0) {
		return nil, fmt.Errorf("plan: diagnostics enabled without sizes/p")
	}

	userRate := 0.0
	if def.SampleClause != nil {
		userRate = def.SampleClause.Rate()
	}
	needResample := opt.BootstrapK > 0 || opt.Diagnostics || userRate > 0
	var resample *Resample
	if needResample {
		resample = &Resample{
			K:            opt.BootstrapK,
			UserRate:     userRate,
			Consolidated: opt.ScanConsolidation,
			Pushed:       opt.OperatorPushdown,
		}
		if opt.Diagnostics && opt.ScanConsolidation {
			resample.DiagSizes = append([]int(nil), opt.DiagSizes...)
			resample.DiagP = opt.DiagP
		}
	}

	var node Node = &Scan{Table: def.Table}
	if needResample && !opt.OperatorPushdown {
		// Naive placement: immediately after the table scan, so weights
		// are generated even for rows the filter will drop (Fig. 6(b),
		// left).
		resample.Input = node
		node = resample
	}
	if def.Where != nil {
		node = &Filter{Input: node, Pred: def.Where}
	}
	var exprs []sql.Expr
	for _, a := range def.Aggs {
		if a.Input != nil {
			exprs = append(exprs, a.Input)
		}
	}
	if len(exprs) > 0 {
		node = &Project{Input: node, Exprs: exprs}
	}
	if needResample && opt.OperatorPushdown {
		// Optimized placement: after the longest pass-through prefix
		// (filters and projections), directly before the aggregate
		// (Fig. 6(b), right).
		resample.Input = node
		node = resample
	}
	node = &Aggregate{
		Input:    node,
		Aggs:     def.Aggs,
		GroupBy:  def.GroupBy,
		Weighted: needResample,
	}
	if opt.BootstrapK > 0 {
		node = &Bootstrap{Input: node, K: opt.BootstrapK, Alpha: opt.Alpha}
	}
	if opt.Diagnostics {
		node = &Diagnostic{
			Input:        node,
			Sizes:        append([]int(nil), opt.DiagSizes...),
			P:            opt.DiagP,
			Consolidated: opt.ScanConsolidation,
			VerdictFirst: opt.VerdictFirst,
		}
	}
	return &Plan{Root: node, Def: def, Opt: opt}, nil
}

// PassThroughPrefixLen counts the consecutive pass-through operators
// (filters, projections) above the scan — the quantity the §5.3.2 rewrite
// maximizes when choosing where to insert the resampling operator.
func PassThroughPrefixLen(root Node) int {
	// Collect the chain bottom-up.
	var chain []Node
	Walk(root, func(n Node) { chain = append(chain, n) })
	// chain is root..leaf; traverse from the leaf upward.
	count := 0
	for i := len(chain) - 2; i >= 0; i-- { // skip the Scan itself
		switch chain[i].(type) {
		case *Filter, *Project:
			count++
		default:
			return count
		}
	}
	return count
}

// NaiveRewriteSQL renders the §5.2 baseline rewrite as SQL text: the
// bootstrap implemented as a UNION ALL of K subqueries, each drawing its
// own Poissonized resample of the sample table. It exists to demonstrate
// (and test) that the naive plan is expressible in the engine's own SQL
// dialect.
func NaiveRewriteSQL(def *QueryDef, k int) string {
	agg := def.Aggs[0]
	inner := agg.Label()
	where := ""
	if def.Where != nil {
		where = " WHERE " + def.Where.String()
	}
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("SELECT %s, ERROR(resample_answer) AS error FROM (", inner))
	for i := 0; i < k; i++ {
		if i > 0 {
			sb.WriteString(" UNION ALL ")
		}
		sb.WriteString(fmt.Sprintf(
			"SELECT %s AS resample_answer FROM %s TABLESAMPLE POISSONIZED (100)%s",
			inner, def.Table, where))
	}
	sb.WriteString(") AS resamples")
	return sb.String()
}
