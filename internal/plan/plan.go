// Package plan builds the logical query plans of the error estimation
// pipeline of §5. Every plan is the same operator chain,
//
//	Scan → Filter? → Project? → [Resample] → Aggregate
//	     → [Bootstrap] → [Diagnostic]
//
// with both §5.3 rewrites always applied:
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
// Because the shape never varies, a Plan stores only what decides it — the
// analyzed query (QueryDef) and the pipeline options (Options) — and
// Explain renders the chain from them.
//
// The §5.2 baseline they replace — one UNION ALL subquery, with its own
// scan, per resample — exists only as the cluster simulator's cost model
// in the paper/ module, where the Fig. 7–9 experiments compare the two.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
)

// Options selects which pipeline stages a plan uses.
type Options struct {
	// BootstrapK is the number of bootstrap resamples drawn for each
	// aggregate whose error bar is the bootstrap's, one without a closed
	// form (estimator.Query.ClosedFormApplicable), and for each of the
	// diagnostic's bootstrap ξ intervals. 0 draws none for the bar, which a
	// plan whose every aggregate has a closed form needs
	// (QueryDef.NeedsResamples); any other aggregate then gets no bar, and
	// its ξ draws estimator.DefaultBootstrapK.
	BootstrapK int
	// Diagnostics enables the diagnostic operator.
	Diagnostics bool
	// SampleRows is the row count of the sample the plan runs on. The
	// diagnostic's ladder is a function of it (diagnostic.Ladder), so a
	// diagnosed plan needs it.
	SampleRows int
	// VerdictFirst declares that whoever runs the plan replaces each
	// aggregate the diagnostic rejects with an exact answer. The executor
	// then does not bootstrap a rejected aggregate — its K estimates would
	// be overwritten unread. Answers, error bars and verdicts of accepted
	// aggregates are unchanged: the diagnostic and the bootstrap draw from
	// independent RNG streams. No effect without Diagnostics.
	VerdictFirst bool
}

// DefaultOptions returns the pipeline with the paper's parameters on a
// sample of sampleRows rows: K=100 resamples and, when the sample is large
// enough to diagnose, Algorithm 1's ladder.
func DefaultOptions(sampleRows int) Options {
	_, diagnosed := diagnostic.Ladder(sampleRows, sampleRows)
	return Options{
		BootstrapK:  estimator.DefaultBootstrapK,
		Diagnostics: diagnosed,
		SampleRows:  sampleRows,
	}
}

// Plan is a planned query: the analyzed definition and the validated
// options. Together they fix the operator chain: a Filter when Def has a
// WHERE, a Project when some aggregate has an input, a Resample (and a
// weighted Aggregate) when Opt asks for a bootstrap or a diagnostic, a
// Bootstrap when Opt.BootstrapK > 0, a Diagnostic when Opt.Diagnostics.
type Plan struct {
	Def *QueryDef
	Opt Options
}

// Build validates the options and plans the query.
func Build(def *QueryDef, opt Options) (*Plan, error) {
	if len(def.Aggs) == 0 {
		return nil, fmt.Errorf("plan: query has no aggregates")
	}
	if opt.BootstrapK < 0 {
		return nil, fmt.Errorf("plan: negative bootstrap K")
	}
	if opt.Diagnostics {
		if _, diagnosed := diagnostic.Ladder(opt.SampleRows, opt.SampleRows); !diagnosed {
			return nil, fmt.Errorf("plan: diagnostics enabled on a sample of %d rows, too few to diagnose", opt.SampleRows)
		}
	}
	return &Plan{Def: def, Opt: opt}, nil
}

// Explain renders the operator chain as an indented tree, root first. The
// Resample carries the diagnostic's weight groups alongside the K bootstrap
// weights (scan consolidation) and sits above the Filter and Project
// (operator pushdown). The diagnostic's ladder shown is the sample's own,
// the one a query runs when at least half the sample survives its filter;
// a tighter filter runs a smaller one (diagnostic.Ladder).
func (p *Plan) Explain() string {
	d, o := p.Def, p.Opt
	weighted := o.BootstrapK > 0 || o.Diagnostics
	sizes, _ := diagnostic.Ladder(o.SampleRows, o.SampleRows)
	var ops []string
	if o.Diagnostics {
		op := fmt.Sprintf("Diagnostic(sizes=%v, p=%d", sizes, diagnostic.P)
		if o.VerdictFirst {
			op += ", verdict-first"
		}
		ops = append(ops, op+")")
	}
	if o.BootstrapK > 0 {
		ops = append(ops, fmt.Sprintf("Bootstrap(K=%d, α=%g)", o.BootstrapK, estimator.ConfidenceLevel))
	}
	aggs := make([]string, len(d.Aggs))
	var inputs []string
	for i, a := range d.Aggs {
		aggs[i] = a.Label()
		if a.Input != nil {
			inputs = append(inputs, a.Input.String())
		}
	}
	op := "Aggregate(" + strings.Join(aggs, ", ")
	if len(d.GroupBy) > 0 {
		op += " GROUP BY " + strings.Join(d.GroupBy, ", ")
	}
	if weighted {
		op += " [weighted]"
	}
	ops = append(ops, op+")")
	if weighted {
		op = fmt.Sprintf("PoissonizedResample(K=%d", o.BootstrapK)
		if o.Diagnostics {
			op += fmt.Sprintf(", diag=%v×%d", sizes, diagnostic.P)
		}
		ops = append(ops, op+")")
	}
	if len(inputs) > 0 {
		ops = append(ops, "Project("+strings.Join(inputs, ", ")+")")
	}
	if d.Where != nil {
		ops = append(ops, "Filter("+d.Where.String()+")")
	}
	ops = append(ops, "Scan("+d.Table+")")
	var sb strings.Builder
	for depth, op := range ops {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(op)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Identity renders everything about the plan that reaches an answer: the
// Explain rendering plus the aggregates' output names, which Explain does
// not show. Two plans with equal identities, run under one seed, produce
// identical answers, so the shared-scan batch keys its dedup on it.
func (p *Plan) Identity() string {
	aliases := make([]string, len(p.Def.Aggs))
	for i, a := range p.Def.Aggs {
		aliases[i] = a.Alias
	}
	return fmt.Sprintf("%sAS %q", p.Explain(), aliases)
}
