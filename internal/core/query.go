package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimator"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/stats"
)

// RunOptions tunes a single Run call without mutating engine configuration,
// so a serving layer can cap per-query work while other queries run
// concurrently with the engine defaults.
type RunOptions struct {
	// BootstrapK, when positive, caps the resample count for this query
	// below the engine's configured K (it never raises it). The serving
	// layer uses it as a per-query resample budget.
	BootstrapK int
	// QueueWait, when positive, records time the query spent waiting in
	// an admission queue before the engine was invoked. It lands in the
	// trace snapshot (queue_wait_ms), /debug/queries, the event log and
	// aqpshell -explain; it does not affect execution.
	QueueWait time.Duration
}

// Query answers the SQL query approximately on the table's largest sample,
// with error bars and a diagnostic verdict per aggregate. Tables without
// samples are answered exactly. Aggregates whose diagnostic rejects error
// estimation fall back to exact execution (unless disabled).
func (e *Engine) Query(query string) (*Answer, error) {
	return e.Run(context.Background(), query)
}

// Run is Query honouring cancellation: ctx is threaded through planning,
// scan, bootstrap resampling (checked once per 8 KiB kernel block), the
// adaptive-K loop, and the diagnostic worker pool. A cancelled query
// returns an error wrapping ctx.Err() (so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) hold) that carries the qN
// query identifier, and all goroutines it spawned exit before Run returns.
// Engines are safe for concurrent Run calls; answers are bit-identical to
// serial execution because all randomness derives from (seed, stream) pairs
// owned by the query, never from shared mutable state.
func (e *Engine) Run(ctx context.Context, query string) (*Answer, error) {
	return e.RunWithOptions(ctx, query, RunOptions{})
}

// RunWithOptions is Run with per-query overrides.
func (e *Engine) RunWithOptions(ctx context.Context, query string, opts RunOptions) (ans *Answer, err error) {
	var start time.Time
	gen := e.gen.Load()
	if e.answers != nil {
		start = time.Now()
	}
	ctx, tc := obs.EnsureTrace(ctx)
	qt := e.obs.StartQuery(query)
	qt.SetTraceContext(tc)
	if opts.QueueWait > 0 {
		qt.SetQueueWait(opts.QueueWait)
	}
	defer func() { e.finishQuery(ctx, qt, query, ans, err, true) }()
	// Answer reuse: a finished answer for the same canonical SQL, resample
	// cap and catalog generation replays without executing. Re-execution
	// would be bit-identical anyway (all randomness is (seed, stream)
	// derived), so reuse is answer-neutral; the generation in the key makes
	// RegisterTable/BuildSamples invalidate instantly.
	if hit := e.answerCacheGet(gen, query, opts.BootstrapK); hit != nil {
		hit.Elapsed = time.Since(start)
		qt.Root().SetAttr("answer_cached", true)
		return hit, nil
	}
	def, rt, err := e.analyze(qt, query)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", e.queryID(qt, query), err)
	}
	st := e.pickSample(def, rt)
	if st == nil {
		ans, err = e.runExact(ctx, qt, qt.Root(), query, def, rt)
		if err != nil {
			return nil, err
		}
		e.answerCachePut(gen, query, opts.BootstrapK, ans)
		return ans, nil
	}
	ans, err = e.runApproximate(ctx, qt, query, def, rt, st, opts.BootstrapK, !e.cfg.DisableFallback)
	if err != nil {
		return nil, err
	}
	if !e.cfg.DisableFallback {
		if err := e.applyFallback(ctx, qt, ans, def, rt); err != nil {
			return nil, err
		}
	}
	e.answerCachePut(gen, query, opts.BootstrapK, ans)
	return ans, nil
}

// QueryWithErrorBound answers the query using the smallest sample whose
// error bars satisfy the relative error bound at the engine's confidence
// level (BlinkDB's error-constrained queries). It escalates through the
// sample catalog and finally to exact execution when the bound cannot be
// met approximately or the diagnostic rejects error estimation.
func (e *Engine) QueryWithErrorBound(query string, relErr float64) (*Answer, error) {
	return e.RunWithErrorBound(context.Background(), query, relErr)
}

// RunWithErrorBound is QueryWithErrorBound honouring cancellation; ctx is
// checked between sample escalations and inside each execution.
func (e *Engine) RunWithErrorBound(ctx context.Context, query string, relErr float64) (out *Answer, err error) {
	if relErr <= 0 {
		return nil, fmt.Errorf("core: relative error bound must be positive")
	}
	ctx, tc := obs.EnsureTrace(ctx)
	qt := e.obs.StartQuery(query)
	qt.SetTraceContext(tc)
	defer func() { e.finishQuery(ctx, qt, query, out, err, true) }()
	def, rt, err := e.analyze(qt, query)
	if err != nil {
		return nil, err
	}
	if len(rt.samples) == 0 {
		return e.runExact(ctx, qt, qt.Root(), query, def, rt)
	}
	var last *Answer
	minRows := 0 // samples smaller than this are provably insufficient
	for _, st := range rt.samples {
		if st.Data.NumRows() < minRows {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %s: %w", e.queryID(qt, query), err)
		}
		// With fallback on, a rejected aggregate sends the loop to the next
		// sample and finally to exact execution, so its bootstrap is never
		// read: the plan may run verdict-first.
		ans, err := e.runApproximate(ctx, qt, query, def, rt, st, 0, !e.cfg.DisableFallback)
		if err != nil {
			return nil, err
		}
		last = ans
		ok := true
		worstRel := 0.0
		for _, g := range ans.Groups {
			for _, a := range g.Aggs {
				if !a.DiagnosticOK || math.IsNaN(a.RelErr) || a.RelErr > relErr {
					ok = false
				}
				if !math.IsNaN(a.RelErr) && a.RelErr > worstRel {
					worstRel = a.RelErr
				}
			}
		}
		if ok {
			return ans, nil
		}
		// For closed-form queries the error shrinks as 1/√n: project the
		// required size from this run and skip samples that cannot
		// possibly satisfy the bound (BlinkDB's sample-selection jump).
		if def.ClosedFormOK() && worstRel > relErr && !math.IsInf(worstRel, 0) {
			ratio := worstRel / relErr
			minRows = int(float64(st.Data.NumRows()) * ratio * ratio * 0.8)
		}
	}
	if e.cfg.DisableFallback {
		return last, nil
	}
	return e.fallbackExact(ctx, qt, query, def, rt, "error bound unmet on all samples")
}

// pickSample chooses the sample for an unconstrained query: a stratified
// sample matching the GROUP BY key when one exists and every aggregate is
// scale-invariant (stratification biases population-scaled SUM/COUNT),
// otherwise the largest uniform sample. Nil means "run exactly".
func (e *Engine) pickSample(def *plan.QueryDef, rt *registeredTable) *exec.StoredTable {
	if s := rt.stratifiedFor(def); s != nil && scaleInvariant(def) {
		return s.st
	}
	if len(rt.samples) == 0 {
		return nil
	}
	return rt.samples[len(rt.samples)-1]
}

// scaleInvariant reports whether every aggregate is unaffected by
// non-uniform per-group sampling rates.
func scaleInvariant(def *plan.QueryDef) bool {
	for _, a := range def.Aggs {
		switch a.Kind {
		case estimator.Sum, estimator.Count:
			return false
		}
	}
	return true
}

// QueryExact answers the query exactly on the full dataset.
func (e *Engine) QueryExact(query string) (*Answer, error) {
	return e.RunExact(context.Background(), query)
}

// RunExact is QueryExact honouring cancellation.
func (e *Engine) RunExact(ctx context.Context, query string) (ans *Answer, err error) {
	ctx, tc := obs.EnsureTrace(ctx)
	qt := e.obs.StartQuery(query)
	qt.SetTraceContext(tc)
	defer func() { e.finishQuery(ctx, qt, query, ans, err, false) }()
	def, rt, err := e.analyze(qt, query)
	if err != nil {
		return nil, err
	}
	return e.runExact(ctx, qt, qt.Root(), query, def, rt)
}

// runExact executes the query on the full table with no sampling pipeline.
// Stage spans attach under parent so fallback executions nest inside their
// fallback span rather than appearing as a second top-level pipeline.
func (e *Engine) runExact(ctx context.Context, qt *obs.QueryTrace, parent *obs.Span, query string, def *plan.QueryDef, rt *registeredTable) (*Answer, error) {
	start := time.Now()
	planSpan := parent.StartSpan(obs.StagePlan)
	p, err := plan.Build(def, plan.Options{Alpha: e.cfg.alpha()})
	planSpan.SetAttr("mode", "exact")
	planSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: %s: plan: %w", e.queryID(qt, query), err)
	}
	res, err := exec.Run(ctx, p, map[string]*exec.StoredTable{
		def.Table: {Data: rt.full},
	}, e.udfRegistry(), e.execConfig(parent))
	if err != nil {
		return nil, fmt.Errorf("core: %s: exact execution: %w", e.queryID(qt, query), err)
	}
	ans := &Answer{
		SQL:            query,
		Plan:           p,
		Counters:       res.Counters,
		PopulationRows: rt.full.NumRows(),
		Selectivity:    scanSelectivity(res.Counters),
		Elapsed:        time.Since(start),
	}
	for _, g := range res.Groups {
		ga := GroupAnswer{Key: g.Key}
		for _, out := range g.Aggs {
			ga.Aggs = append(ga.Aggs, AggAnswer{
				Name:         out.Spec.Alias,
				Estimate:     out.Value,
				ErrorBar:     estimator.Interval{Center: out.Value},
				RelErr:       0,
				Technique:    "exact",
				DiagnosticOK: true,
				Exact:        true,
			})
		}
		ans.Groups = append(ans.Groups, ga)
	}
	return ans, nil
}

// runApproximate executes the full §5 pipeline on the given sample. kCap,
// when positive, bounds the resample count for this query only.
// exactOnReject promises that the caller replaces every aggregate the
// diagnostic rejects with an exact answer (applyFallback, or a whole-query
// exact fallback), which lets the plan skip those aggregates' bootstrap.
func (e *Engine) runApproximate(ctx context.Context, qt *obs.QueryTrace, query string, def *plan.QueryDef, rt *registeredTable, st *exec.StoredTable, kCap int, exactOnReject bool) (*Answer, error) {
	start := time.Now()
	p, opt, err := e.buildApproxPlan(qt, query, def, st, kCap, exactOnReject)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(ctx, p, map[string]*exec.StoredTable{def.Table: st},
		e.udfRegistry(), e.execConfig(qt.Root()))
	if err != nil {
		return nil, fmt.Errorf("core: %s: approximate execution: %w", e.queryID(qt, query), err)
	}
	return e.answerFromResult(qt, query, def, opt, p, res, st, start)
}

// buildApproxPlan builds the §5 approximate plan for one query on one
// sample, emitting the plan stage span. It is shared by the solo path
// (runApproximate) and the shared-scan batch path (RunSharedBatch).
func (e *Engine) buildApproxPlan(qt *obs.QueryTrace, query string, def *plan.QueryDef, st *exec.StoredTable, kCap int, exactOnReject bool) (*plan.Plan, plan.Options, error) {
	n := st.Data.NumRows()
	opt := e.planOptions(n, !def.ClosedFormOK(), kCap)
	opt.VerdictFirst = exactOnReject
	planSpan := qt.StartSpan(obs.StagePlan)
	p, err := plan.Build(def, opt)
	planSpan.SetAttr("mode", "approximate")
	planSpan.AddInt("sample_rows", int64(n))
	planSpan.AddInt("bootstrap_k", int64(opt.BootstrapK))
	planSpan.SetAttr("consolidated", opt.ScanConsolidation)
	planSpan.SetAttr("diagnostics", opt.Diagnostics)
	planSpan.End()
	if err != nil {
		return nil, opt, fmt.Errorf("core: %s: plan: %w", e.queryID(qt, query), err)
	}
	return p, opt, nil
}

// answerFromResult turns an executor result into an Answer: error bars per
// aggregate (estimate stage span), diagnostic verdicts, and the optional
// cluster simulation.
func (e *Engine) answerFromResult(qt *obs.QueryTrace, query string, def *plan.QueryDef, opt plan.Options, p *plan.Plan, res *exec.Result, st *exec.StoredTable, start time.Time) (*Answer, error) {
	ans := &Answer{
		SQL:            query,
		SampleRows:     res.SampleRows,
		Plan:           p,
		Counters:       res.Counters,
		PopulationRows: st.PopRows,
		Selectivity:    scanSelectivity(res.Counters),
	}
	alpha := e.cfg.alpha()
	estSpan := qt.StartSpan(obs.StageEstimate)
	maxRel := 0.0
	for _, g := range res.Groups {
		ga := GroupAnswer{Key: g.Key}
		for _, out := range g.Aggs {
			aa := AggAnswer{
				Name:         out.Spec.Alias,
				Estimate:     out.Value,
				DiagnosticOK: true,
			}
			iv, technique, err := e.errorBar(out, alpha)
			if err != nil {
				estSpan.End()
				return nil, fmt.Errorf("core: %s: error bar for %s: %w",
					e.queryID(qt, query), out.Spec.Alias, err)
			}
			aa.ErrorBar = iv
			aa.Technique = technique
			aa.RelErr = iv.RelativeError()
			if len(out.Bootstrap) > ans.BootstrapKUsed {
				ans.BootstrapKUsed = len(out.Bootstrap)
			}
			if !math.IsNaN(aa.RelErr) && aa.RelErr > maxRel {
				maxRel = aa.RelErr
			}
			estSpan.AddInt("technique_"+technique, 1)
			if out.Diag != nil {
				aa.DiagnosticOK = out.Diag.OK
				aa.DiagnosticCause = out.Diag.Cause.String()
				aa.DiagnosticReason = out.Diag.Reason
			}
			ga.Aggs = append(ga.Aggs, aa)
		}
		ans.Groups = append(ans.Groups, ga)
	}
	estSpan.SetAttr("max_rel_err", maxRel)
	estSpan.End()
	ans.Elapsed = time.Since(start)
	if e.cfg.Cluster != nil {
		b := e.simulate(qt, def, opt, res, st)
		ans.Simulated = &b
	}
	return ans, nil
}

// scanSelectivity derives the predicate pass rate from one execution's
// counters (-1 when nothing was scanned).
func scanSelectivity(c exec.Counters) float64 {
	if c.RowsScanned <= 0 {
		return -1
	}
	return float64(c.RowsAfterFilter) / float64(c.RowsScanned)
}

// errorBar computes the confidence interval for one aggregate output using
// the cheapest applicable technique: closed forms when known, otherwise
// the bootstrap distribution the executor already produced.
func (e *Engine) errorBar(out exec.AggOutput, alpha float64) (estimator.Interval, string, error) {
	spec := estimator.Query{Kind: out.Spec.Kind, Pct: out.Spec.Pct}
	if spec.ClosedFormApplicable() && out.Spec.Kind != estimator.Sum &&
		out.Spec.Kind != estimator.Count {
		iv, err := (estimator.ClosedForm{}).Interval(nil, out.Values, spec, alpha)
		if err != nil {
			return estimator.Interval{}, "", err
		}
		return iv, "closed-form", nil
	}
	if out.Spec.Kind == estimator.Sum || out.Spec.Kind == estimator.Count {
		// Scaled sums: closed form on the scaled query the executor built.
		iv, err := closedFormScaledSum(out, alpha)
		if err == nil {
			return iv, "closed-form", nil
		}
		// Fall through to the bootstrap on error.
	}
	if len(out.Bootstrap) == 0 {
		return estimator.Interval{Center: out.Value, HalfWidth: math.NaN()},
			"none", nil
	}
	half := stats.SymmetricHalfWidth(out.Bootstrap, out.Value, alpha)
	return estimator.Interval{Center: out.Value, HalfWidth: half}, "bootstrap", nil
}

// closedFormScaledSum computes the CLT interval for a population-scaled
// SUM/COUNT: θ̂ = c·Σx with c = |D|/|S|, so σ̂ = c·s·√n_filtered.
func closedFormScaledSum(out exec.AggOutput, alpha float64) (estimator.Interval, error) {
	n := len(out.Values)
	if n == 0 {
		return estimator.Interval{}, fmt.Errorf("core: empty aggregation input")
	}
	sum := stats.Sum(out.Values)
	scale := 1.0
	if sum != 0 {
		scale = out.Value / sum
	}
	s2 := stats.SampleVariance(out.Values)
	if math.IsNaN(s2) {
		s2 = 0
	}
	z := stats.StdNormalQuantile(0.5 + alpha/2)
	half := math.Abs(scale) * z * math.Sqrt(s2*float64(n))
	return estimator.Interval{Center: out.Value, HalfWidth: half}, nil
}

// fallbackExact runs the query exactly under a fallback span, recording the
// fallback in the metrics registry.
func (e *Engine) fallbackExact(ctx context.Context, qt *obs.QueryTrace, query string, def *plan.QueryDef, rt *registeredTable, reason string) (*Answer, error) {
	span := qt.StartSpan(obs.StageFallback)
	span.SetAttr("reason", reason)
	qt.Metrics().Counter("aqp_fallbacks_total",
		"Queries (or aggregates) re-answered exactly after the approximate path failed.",
		"reason", reason).Inc()
	ans, err := e.runExact(ctx, qt, span, query, def, rt)
	span.End()
	return ans, err
}

// applyFallback re-answers exactly any aggregate whose diagnostic rejected
// error estimation, replacing its entry in the answer.
func (e *Engine) applyFallback(ctx context.Context, qt *obs.QueryTrace, ans *Answer, def *plan.QueryDef, rt *registeredTable) error {
	needed := false
	for _, g := range ans.Groups {
		for _, a := range g.Aggs {
			if !a.DiagnosticOK {
				needed = true
			}
		}
	}
	if !needed {
		return nil
	}
	exact, err := e.fallbackExact(ctx, qt, ans.SQL, def, rt, "diagnostic rejected")
	if err != nil {
		return err
	}
	exactByKey := map[string][]AggAnswer{}
	for _, g := range exact.Groups {
		exactByKey[g.Key] = g.Aggs
	}
	for gi := range ans.Groups {
		exAggs, ok := exactByKey[ans.Groups[gi].Key]
		if !ok {
			continue
		}
		for ai := range ans.Groups[gi].Aggs {
			if ans.Groups[gi].Aggs[ai].DiagnosticOK {
				continue
			}
			rejected := ans.Groups[gi].Aggs[ai]
			ans.Groups[gi].Aggs[ai] = exAggs[ai]
			ans.Groups[gi].Aggs[ai].DiagnosticOK = false
			ans.Groups[gi].Aggs[ai].DiagnosticCause = rejected.DiagnosticCause
			ans.Groups[gi].Aggs[ai].DiagnosticReason = rejected.DiagnosticReason
		}
	}
	ans.Counters.Scans += exact.Counters.Scans
	ans.Counters.Subqueries += exact.Counters.Subqueries
	ans.Counters.RowsScanned += exact.Counters.RowsScanned
	ans.Counters.BytesScanned += exact.Counters.BytesScanned
	ans.Counters.BlocksSkipped += exact.Counters.BlocksSkipped
	ans.Counters.BlocksDecoded += exact.Counters.BlocksDecoded
	ans.Counters.DecodeNanos += exact.Counters.DecodeNanos
	ans.Elapsed += exact.Elapsed
	return nil
}

// simulate derives the production-scale latency breakdown for the executed
// pipeline from the measured counters.
func (e *Engine) simulate(qt *obs.QueryTrace, def *plan.QueryDef, opt plan.Options, res *exec.Result, st *exec.StoredTable) cluster.Breakdown {
	span := qt.StartSpan(obs.StageClusterSim)
	simStart := time.Now()
	defer span.End()
	actualMB := float64(st.Data.SizeBytes()) / 1e6
	logicalMB := actualMB
	if e.cfg.LogicalSampleMB > 0 {
		logicalMB = e.cfg.LogicalSampleMB
	}
	// Production rows are wider than our lean columnar test rows; size
	// the logical row count by a production bytes-per-row so the CPU and
	// memory terms stay realistic.
	const logicalBytesPerRow = 200
	logicalRows := logicalMB * 1e6 / logicalBytesPerRow
	rowScale := 1.0
	if res.SampleRows > 0 {
		rowScale = logicalRows / float64(res.SampleRows)
	}
	sel := 1.0
	if res.Counters.RowsScanned > 0 {
		sel = float64(res.Counters.RowsAfterFilter) / float64(res.Counters.RowsScanned)
	}
	sizes := make([]int, len(opt.DiagSizes))
	for i, b := range opt.DiagSizes {
		sizes[i] = int(float64(b) * rowScale)
	}
	k := opt.BootstrapK
	if def.ClosedFormOK() {
		k = 0
	}
	shape := cluster.QueryShape{
		SampleMB:     logicalMB,
		SampleRows:   int64(logicalRows),
		Selectivity:  sel,
		BootstrapK:   k,
		DiagSizes:    sizes,
		DiagP:        opt.DiagP,
		ClosedForm:   def.ClosedFormOK(),
		Consolidated: opt.ScanConsolidation,
		Pushdown:     opt.OperatorPushdown,
		Fanout:       len(res.Groups),
	}
	if !opt.Diagnostics {
		shape.DiagSizes = nil
		shape.DiagP = 0
	}
	src := rng.NewWithStream(e.cfg.Seed, 0xC105)
	b := e.cfg.Cluster.SimulateBreakdown(src, shape)
	span.SetAttr("sim_query_sec", b.QuerySec)
	span.SetAttr("sim_error_sec", b.ErrorSec)
	span.SetAttr("sim_diag_sec", b.DiagSec)
	span.SetAttr("sim_total_sec", b.Total())
	b.Observe(qt.Metrics(), time.Since(simStart))
	return b
}
