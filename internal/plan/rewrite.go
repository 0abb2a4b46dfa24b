package plan

import (
	"fmt"

	"repro/internal/sql"
)

// Options selects which pipeline stages a plan uses.
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
	// VerdictFirst declares that whoever runs the plan replaces each
	// aggregate the diagnostic rejects with an exact answer. The executor
	// then does not bootstrap a rejected aggregate — its K estimates would
	// be overwritten unread. Answers, error bars and verdicts of accepted
	// aggregates are unchanged: the diagnostic and the bootstrap draw from
	// independent RNG streams. No effect without Diagnostics.
	VerdictFirst bool
}

// DefaultOptions returns the pipeline with the paper's parameters (K=100
// resamples, p=100 subsamples at 3 sizes, α=0.95).
func DefaultOptions(sampleRows int) Options {
	b3 := sampleRows / 200
	if b3 < 4 {
		b3 = 4
	}
	return Options{
		BootstrapK:  100,
		Alpha:       0.95,
		Diagnostics: true,
		DiagSizes:   []int{b3 / 4, b3 / 2, b3},
		DiagP:       100,
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
//	Scan → Filter? → Project? → [Resample?] → Aggregate
//	   → Bootstrap? → Diagnostic?
//
// with both §5.3 rewrites applied: the Resample sits after the pass-through
// prefix and carries the diagnostic's weight groups alongside the K
// bootstrap weights, so one scan feeds every resample.
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

	var node Node = &Scan{Table: def.Table}
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
	needResample := opt.BootstrapK > 0 || opt.Diagnostics
	if needResample {
		resample := &Resample{Input: node, K: opt.BootstrapK}
		if opt.Diagnostics {
			resample.DiagSizes = append([]int(nil), opt.DiagSizes...)
			resample.DiagP = opt.DiagP
		}
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
			VerdictFirst: opt.VerdictFirst,
		}
	}
	return &Plan{Root: node, Def: def, Opt: opt}, nil
}
