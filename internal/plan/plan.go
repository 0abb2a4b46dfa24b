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
// (internal/cluster), where the Fig. 7–9 experiments compare the two.
package plan

import (
	"fmt"
	"strings"
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

// Plan is a planned query: the analyzed definition and the validated
// options. Together they fix the operator chain: a Filter when Def has a
// WHERE, a Project when some aggregate has an input, a Resample (and a
// weighted Aggregate) when Opt asks for a bootstrap or a diagnostic, a
// Bootstrap when Opt.BootstrapK > 0, a Diagnostic when Opt.Diagnostics.
type Plan struct {
	Def *QueryDef
	Opt Options
}

// Build validates and normalizes the options and plans the query.
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
	opt.DiagSizes = append([]int(nil), opt.DiagSizes...)
	return &Plan{Def: def, Opt: opt}, nil
}

// Explain renders the operator chain as an indented tree, root first. The
// Resample carries the diagnostic's weight groups alongside the K bootstrap
// weights (scan consolidation) and sits above the Filter and Project
// (operator pushdown).
func (p *Plan) Explain() string {
	d, o := p.Def, p.Opt
	weighted := o.BootstrapK > 0 || o.Diagnostics
	var ops []string
	if o.Diagnostics {
		op := fmt.Sprintf("Diagnostic(sizes=%v, p=%d", o.DiagSizes, o.DiagP)
		if o.VerdictFirst {
			op += ", verdict-first"
		}
		ops = append(ops, op+")")
	}
	if o.BootstrapK > 0 {
		ops = append(ops, fmt.Sprintf("Bootstrap(K=%d, α=%g)", o.BootstrapK, o.Alpha))
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
			op += fmt.Sprintf(", diag=%v×%d", o.DiagSizes, o.DiagP)
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
