package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/table"
)

// RunOptions is one query's request: what to answer it with and how far to
// go. The zero value is a plain request — the §5 pipeline on the sample
// planFirst chooses, each aggregate the diagnostic rejects re-answered
// exactly, or the exact plan when the block table answers the query for
// less decode than the sample would cost, or when no group of the sample
// can be diagnosed. At most one of Exact, ErrorBound
// and TimeBudget may be set; the answer cache serves and stores plain
// requests only.
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
	// Exact answers the query on the full dataset, with no sampling
	// pipeline.
	Exact bool
	// ErrorBound, when positive, answers on the smallest sample whose error
	// bars satisfy this relative error at the engine's confidence level
	// (BlinkDB's error-constrained queries): it escalates through the
	// uniform samples, ctx checked between them, and finally to exact
	// execution when the bound cannot be met approximately or the diagnostic
	// rejects error estimation.
	ErrorBound float64
	// TimeBudget, when positive, answers on the largest sample whose
	// predicted execution time fits it (BlinkDB's response-time constrained
	// queries). The prediction calibrates per-row cost on the smallest
	// sample, so a budgeted query pays one pilot execution. The answer is
	// returned as it comes: an aggregate the diagnostic rejects keeps its
	// error bar and is not re-answered exactly.
	TimeBudget time.Duration
}

// plain reports whether the request sets none of the three modes.
func (o RunOptions) plain() bool {
	return !o.Exact && o.ErrorBound == 0 && o.TimeBudget == 0
}

func (o RunOptions) validate() error {
	modes := 0
	for _, set := range []bool{o.Exact, o.ErrorBound != 0, o.TimeBudget != 0} {
		if set {
			modes++
		}
	}
	switch {
	case o.ErrorBound < 0 || math.IsNaN(o.ErrorBound):
		return fmt.Errorf("core: relative error bound must be positive")
	case o.TimeBudget < 0:
		return fmt.Errorf("core: time budget must be positive")
	case modes > 1:
		return fmt.Errorf("core: at most one of Exact, ErrorBound and TimeBudget may be set")
	}
	return nil
}

// request is one query between begin and finish.
type request struct {
	e     *Engine // the engine answering the request
	ctx   context.Context
	id    uint64 // Engine.qid's number for the query; 0 outside begin
	tc    obs.TraceContext
	sql   string
	opts  RunOptions
	gen   uint64 // catalog generation at begin: what the answer cache is keyed by
	start time.Time
	def   *plan.QueryDef
	rt    *registeredTable
	// route is why planFirst planned the request exact (an obs.Plan*
	// reason; "" when it did not), with the evidence: plannedBlocks, the
	// decode predicted for the exact plan (obs.PlanBlockTable), or ceiling,
	// the most rows one GROUP BY key holds in the sample of sampleRows rows
	// it skipped (obs.PlanTooFewRows).
	route                              string
	plannedBlocks, ceiling, sampleRows int
	// stages are the stages run so far, in the order they began: the
	// record's.
	stages []obs.StageRecord
}

// label names the request in errors: its id and a prefix of its SQL.
func (q *request) label() string {
	sql := q.sql
	if len(sql) > 48 {
		sql = sql[:48] + "..."
	}
	if q.id == 0 {
		return "(" + sql + ")"
	}
	return fmt.Sprintf("q%d (%s)", q.id, sql)
}

// Run answers the query with the zero RunOptions.
func (e *Engine) Run(ctx context.Context, query string) (*Answer, error) {
	return e.RunWithOptions(ctx, query, RunOptions{})
}

// RunExact answers the query exactly on the full dataset.
func (e *Engine) RunExact(ctx context.Context, query string) (*Answer, error) {
	return e.RunWithOptions(ctx, query, RunOptions{Exact: true})
}

// RunWithOptions answers one query: begin, execute, finish. Tables without
// samples are answered exactly. ctx is threaded through planning, scan,
// bootstrap resampling (checked once per 8 KiB kernel block) and the
// diagnostic worker pool. A cancelled query returns an error
// wrapping ctx.Err() (so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) hold) that carries the qN query
// identifier, and all goroutines it spawned exit before the call returns.
// Engines are safe for concurrent calls; answers are bit-identical to
// serial execution because all randomness derives from (seed, stream) pairs
// owned by the query, never from shared mutable state.
func (e *Engine) RunWithOptions(ctx context.Context, query string, opts RunOptions) (*Answer, error) {
	q, ans, err := e.begin(ctx, query, opts, false)
	if err == nil && ans == nil {
		ans, err = e.execute(&q)
	}
	return e.finish(&q, ans, err)
}

// begin opens a request: it captures the catalog generation, probes the
// answer cache, numbers the query, binds its trace context, and parses and
// resolves it. It returns a replayed answer, or an error, or neither — then
// the request is ready for execute — and in all three cases a request that
// finish must close. With replayOnly a miss returns no answer and no error
// either, but the request is not numbered and there is nothing to finish.
//
// Answer reuse: a finished answer for the same canonical SQL, resample cap and
// catalog generation replays without executing. Re-execution would be
// bit-identical anyway (all randomness is (seed, stream) derived), so reuse is
// answer-neutral; the generation in the key makes RegisterTable/BuildSamples
// invalidate instantly.
func (e *Engine) begin(ctx context.Context, sql string, opts RunOptions, replayOnly bool) (request, *Answer, error) {
	q := request{sql: sql, opts: opts, gen: e.gen.Load(), start: time.Now()}
	invalid := opts.validate()
	var replay *Answer
	if invalid == nil && opts.plain() {
		replay = e.answerCacheGet(q.gen, sql, opts.BootstrapK)
	}
	if replay == nil && replayOnly {
		return q, nil, nil
	}
	q.id = e.qid.Add(1)
	q.ctx, q.tc = obs.EnsureTrace(ctx)
	if replay != nil {
		replay.Elapsed = time.Since(q.start)
		return q, replay, nil
	}
	if invalid != nil {
		return q, nil, invalid
	}
	q.stages = make([]obs.StageRecord, 0, 8)
	start := time.Now()
	err := e.analyze(&q)
	parse := obs.StageRecord{Stage: obs.StageParse}
	if q.def != nil {
		parse.Table, parse.Aggregates = q.def.Table, len(q.def.Aggs)
	}
	q.stage(parse, start)
	if err != nil {
		return q, nil, err
	}
	if err := q.ctx.Err(); err != nil {
		return q, nil, fmt.Errorf("core: %s: %w", q.label(), err)
	}
	return q, nil, nil
}

// execute answers a request begin found no replay for.
func (e *Engine) execute(q *request) (*Answer, error) {
	var ans *Answer
	err := e.rebuildingRefused(q, func() (st *exec.StoredTable, err error) {
		ans, st, err = e.executeOnce(q)
		return st, err
	})
	return ans, err
}

// rebuildingRefused runs attempt, which returns the sample it failed on with
// its error. A sample opened from its file whose column attempt refused
// (table.CorruptColumnError) is rebuilt with the rows the file should have
// held, and attempt runs again from the start on the catalog that serves the
// build, so what it returns is what an engine that found no file gives. Each
// rebuild replaces a sample for good, which bounds the retries.
func (e *Engine) rebuildingRefused(q *request, attempt func() (*exec.StoredTable, error)) error {
	st, err := attempt()
	for range q.rt.samples {
		var refused *table.CorruptColumnError
		if st == nil || !errors.As(err, &refused) || !e.rebuildSample(st) {
			break
		}
		q.rt, _ = e.snapshotTable(q.def.Table)
		st, err = attempt()
	}
	return err
}

// executeOnce runs the request on the sample planFirst names and on each one
// nextSample names after it, then ends it by the mode it names. A request
// that never ran on a sample — an exact one, or one on a table with no
// sample its mode could run on — runs the exact plan. A run, or a plan, on a
// sample that fails returns that sample with its error.
func (e *Engine) executeOnce(q *request) (*Answer, *exec.StoredTable, error) {
	var ran *exec.StoredTable
	var ans *Answer
	st, err := q.planFirst()
	if err != nil {
		return nil, st, err
	}
	for ; st != nil; st = q.nextSample(ran, ans) {
		if err := q.ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: %s: %w", q.label(), err)
		}
		var err error
		if ans, err = e.runApproximate(q, st, e.exactOnReject(q.opts)); err != nil {
			return nil, st, err
		}
		ran = st
	}
	switch {
	case ans == nil:
		ans, err := e.runExact(q, false)
		return ans, nil, err
	case q.opts.plain():
		return ans, nil, e.applyFallback(q, ans)
	case q.opts.ErrorBound > 0 && e.exactOnReject(q.opts):
		if met, _ := meetsBound(ans, q.opts.ErrorBound); !met {
			ans, err := e.fallbackExact(q, "error bound unmet on all samples")
			return ans, nil, err
		}
	}
	return ans, nil, nil
}

// finish closes a request begin opened: a plain request's answer goes to the
// answer cache under the generation the query STARTED at — if the catalog
// changed mid-flight the entry lands under the old generation and is never
// served again, rather than poisoning the new one — and the query's record
// goes to the observers. A failed request has no answer.
func (e *Engine) finish(q *request, ans *Answer, err error) (*Answer, error) {
	if err != nil {
		ans = nil
	} else if q.opts.plain() {
		e.answerCachePut(q.gen, q.sql, q.opts.BootstrapK, ans)
	}
	e.finishQuery(q, ans, err)
	return ans, err
}

// exactOnReject is the fallback policy, and the one reader of
// Config.noFallback: whether an aggregate the diagnostic rejects is
// replaced by an exact answer (applyFallback, or the whole-query fallback that
// ends an error-bound escalation). When it is, the rejected aggregate's
// bootstrap is never read, so the plan may run verdict-first
// (plan.Options.VerdictFirst). A time-budgeted answer is returned as it comes,
// rejected aggregates with their bootstrap error bars included.
func (e *Engine) exactOnReject(opts RunOptions) bool {
	return !e.cfg.noFallback && opts.TimeBudget == 0
}

// planFirst and nextSample are the sample-choice policy, and the one reader of
// the catalog's samples for routing: planFirst names the sample a request runs
// on first, and nextSample, given the sample the request just ran on and its
// answer, the sample to run next; nil runs no (further) sample.
//
//   - A plain request runs once: on a stratified sample matching its GROUP BY
//     when every aggregate is scale-invariant (stratification biases
//     population-scaled SUM/COUNT), otherwise on the largest uniform sample.
//   - An error bound starts on the smallest uniform sample and stops once
//     every aggregate is accepted and within the bound. Otherwise it moves up
//     to the next sample the closed-form projection does not rule out
//     (BlinkDB's sample-selection jump).
//   - A time budget pilots on the smallest uniform sample, then runs the
//     largest one the pilot's per-row cost predicts will fit, if that is
//     another sample.
//
// An exact request, or one with no sample its mode can run on, gets nil from
// planFirst and runs the exact plan. So does a request the block table
// answers for no more decode than its first sample would cost (planExact),
// and a grouped one no group of its first sample can be diagnosed for
// (planTooFew). When planTooFew cannot read that sample's GROUP BY column,
// planFirst returns the sample with the error.
func (q *request) planFirst() (*exec.StoredTable, error) {
	if q.opts.Exact {
		return nil, nil
	}
	st := q.firstSample()
	if st == nil || q.planExact(st) {
		return nil, nil
	}
	switch tooFew, err := q.planTooFew(st); {
	case err != nil:
		return st, fmt.Errorf("core: %s: plan: %w", q.label(), err)
	case tooFew:
		return nil, nil
	}
	return st, nil
}

// nextSample is the rest of the policy (see planFirst).
func (q *request) nextSample(ran *exec.StoredTable, ans *Answer) *exec.StoredTable {
	samples := q.rt.samples
	switch {
	case q.opts.plain():
		return nil
	case q.opts.ErrorBound > 0:
		bound := q.opts.ErrorBound
		met, worst := meetsBound(ans, bound)
		if met {
			return nil
		}
		minRows := 0 // samples smaller than this are provably insufficient
		if !q.def.NeedsResamples(ran.PopRows, ran.Data.NumRows()) && worst > bound && !math.IsInf(worst, 0) {
			minRows = rowsForBound(ran.Data.NumRows(), worst, bound)
		}
		for _, st := range samples[slices.Index(samples, ran)+1:] {
			if st.Data.NumRows() >= minRows {
				return st
			}
		}
		return nil
	default: // q.opts.TimeBudget > 0
		// Even when the pilot alone blows the budget, it is the best answer
		// there is.
		if ran != samples[0] || ans.Elapsed >= q.opts.TimeBudget {
			return nil
		}
		perRow := float64(ans.Elapsed) / float64(ran.Data.NumRows())
		maxRows := withHeadroom(float64(q.opts.TimeBudget) / perRow)
		best := ran
		for _, st := range samples {
			if st.Data.NumRows() <= maxRows {
				best = st
			}
		}
		if best == ran {
			return nil
		}
		return best
	}
}

// firstSample is the sample a request's mode runs on first (see planFirst).
func (q *request) firstSample() *exec.StoredTable {
	samples := q.rt.samples
	if q.opts.plain() && len(q.def.GroupBy) == 1 && scaleInvariant(q.def) {
		for _, s := range q.rt.stratified {
			if strings.EqualFold(s.keyColumn, q.def.GroupBy[0]) {
				return s.st
			}
		}
	}
	switch {
	case len(samples) == 0:
		return nil
	case q.opts.plain():
		return samples[len(samples)-1]
	}
	return samples[0]
}

// planExact reports whether the exact plan answers the request from the
// block table for no more decode than a scan of the sample st: the query is
// ungrouped, every aggregate is a MIN or MAX of a bare numeric column, and
// exec.ExtremeDecode predicts no more column blocks on the full table than
// on st. Such an aggregate is the diagnostic's most frequent reject (the
// paper's Fig. 3), and the exact answer it falls back to then costs a scan
// of the sample besides. An exact plan meets every error bound and costs
// less than any pilot, so the rule holds in every mode. It records the
// prediction on the request, for the plan stage and EXPLAIN.
func (q *request) planExact(st *exec.StoredTable) bool {
	exact, ok := exec.ExtremeDecode(q.e.preds, &exec.StoredTable{Data: q.rt.full}, q.def)
	if !ok {
		return false
	}
	if sampled, _ := exec.ExtremeDecode(q.e.preds, st, q.def); exact > sampled {
		return false
	}
	q.route, q.plannedBlocks = obs.PlanBlockTable, exact
	return true
}

// planTooFew reports whether every aggregate of the grouped plain request
// is certain to be rejected too_few_rows on the sample st and re-answered
// exactly: the engine replaces rejects, the diagnostic runs, and
// diagnostic.Ladder finds no ladder in the most rows any one key of the
// GROUP BY column holds in st (its KeyCeiling), which bounds every group's
// filtered rows under any predicate. Count-first would reach that verdict at
// the scan's barrier; this reaches it before the scan. An error bound is left
// to escalate, since a larger sample may clear the floor, and a time budget
// keeps a reject's bootstrap bar. It records the evidence on the request, for
// the plan stage and EXPLAIN. Counting the groups reads the GROUP BY column
// of st, and its error is returned.
func (q *request) planTooFew(st *exec.StoredTable) (bool, error) {
	if !q.opts.plain() || !q.e.exactOnReject(q.opts) || q.e.cfg.skipDiagnostics || len(q.def.GroupBy) == 0 {
		return false, nil
	}
	ceiling, err := st.KeyCeiling(q.ctx, q.def.GroupBy[0], q.e.execConfig())
	if err != nil {
		return false, err
	}
	n := st.Data.NumRows()
	if sizes, diagnosed := diagnostic.Ladder(n, ceiling); sizes != nil || !diagnosed {
		return false, nil // a group may clear the floor, or no group is diagnosed
	}
	q.route, q.ceiling, q.sampleRows = obs.PlanTooFewRows, ceiling, n
	return true, nil
}

// meetsBound reports whether every aggregate of ans is accepted by the
// diagnostic with a relative error within bound, and the largest relative
// error it has.
func meetsBound(ans *Answer, bound float64) (met bool, worst float64) {
	met = true
	for _, g := range ans.Groups {
		for _, a := range g.Aggs {
			if !a.DiagnosticOK || math.IsNaN(a.RelErr) || a.RelErr > bound {
				met = false
			}
			if !math.IsNaN(a.RelErr) && a.RelErr > worst {
				worst = a.RelErr
			}
		}
	}
	return met, worst
}

// headroom discounts every projected row count by 20%, because a projection
// from one run is noisy: the error-bound skip rules out only samples under
// 80% of the rows it projects, and a time budget runs only samples within 80%
// of the rows it projects will fit.
const headroom = 0.8

// rowsForBound is the 1/√n rule: a closed-form error bar that measured a
// relative error rel on n rows narrows to bound on n·(rel/bound)² rows. The
// count is taken with headroom.
func rowsForBound(n int, rel, bound float64) int {
	ratio := rel / bound
	return withHeadroom(float64(n) * ratio * ratio)
}

// withHeadroom takes a projected row count with headroom, as an int. A
// projection past the int range saturates at math.MaxInt rather than wrap.
func withHeadroom(rows float64) int {
	rows *= headroom
	if !(rows < math.MaxInt) {
		return math.MaxInt
	}
	return int(rows)
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

// runExact executes the query on the full table with no sampling pipeline.
// A fallback's run is nested: its stages belong to the fallback stage rather
// than forming a second top-level pipeline.
func (e *Engine) runExact(q *request, nested bool) (*Answer, error) {
	start := time.Now()
	p, err := e.buildExactPlan(q, nested)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(q.ctx, p, &exec.StoredTable{Data: q.rt.full}, e.udfRegistry(), e.execConfig())
	if err != nil {
		return nil, fmt.Errorf("core: %s: exact execution: %w", q.label(), err)
	}
	q.execStages(res, 0, nested)
	ans := &Answer{
		SQL:            q.sql,
		Plan:           p,
		Counters:       res.Counters,
		PopulationRows: q.rt.full.NumRows(),
		Selectivity:    scanSelectivity(res.Counters),
		Elapsed:        time.Since(start),
	}
	for _, g := range res.Groups {
		ga := GroupAnswer{Key: g.Key, Aggs: make([]AggAnswer, 0, len(g.Aggs))}
		for _, out := range g.Aggs {
			ga.Aggs = append(ga.Aggs, AggAnswer{
				Name:      out.Spec.Alias,
				Estimate:  out.Value,
				ErrorBar:  estimator.Interval{Center: out.Value},
				RelErr:    0,
				Technique: "exact",
				Diagnosis: Diagnosis{DiagnosticOK: true},
				Exact:     true,
			})
		}
		ans.Groups = append(ans.Groups, ga)
	}
	return ans, nil
}

// runApproximate executes the full §5 pipeline on the given sample.
// verdictFirst (see exactOnReject) promises that the caller replaces every
// aggregate the diagnostic rejects with an exact answer, which lets the plan
// skip those aggregates' bootstrap.
func (e *Engine) runApproximate(q *request, st *exec.StoredTable, verdictFirst bool) (*Answer, error) {
	start := time.Now()
	p, err := e.buildApproxPlan(q, st, verdictFirst)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(q.ctx, p, st, e.udfRegistry(), e.execConfig())
	if err != nil {
		return nil, fmt.Errorf("core: %s: approximate execution: %w", q.label(), err)
	}
	q.execStages(res, p.Opt.BootstrapK, false)
	return e.answerFromResult(q, p, res, st, start), nil
}

// buildExactPlan builds the plan of an exact execution and records its plan
// stage, nested under a fallback when the run is one.
func (e *Engine) buildExactPlan(q *request, nested bool) (*plan.Plan, error) {
	start := time.Now()
	p, err := plan.Build(q.def, plan.Options{})
	rec := obs.StageRecord{Stage: obs.StagePlan, Nested: nested}
	if !nested {
		rec.Reason, rec.PredictedBlocks = q.route, q.plannedBlocks
		rec.KeyCeiling, rec.SampleRows = q.ceiling, q.sampleRows
	}
	q.stage(rec, start)
	if err != nil {
		return nil, fmt.Errorf("core: %s: plan: %w", q.label(), err)
	}
	return p, nil
}

// buildApproxPlan builds the §5 approximate plan for one query on one
// sample and records its plan stage, for runApproximate and Explain.
func (e *Engine) buildApproxPlan(q *request, st *exec.StoredTable, verdictFirst bool) (*plan.Plan, error) {
	n := st.Data.NumRows()
	opt := plan.DefaultOptions(n)
	opt.BootstrapK = 0 // stays 0 when every bar has a closed form: nothing reads resamples
	if q.def.NeedsResamples(st.PopRows, n) {
		opt.BootstrapK = e.cfg.bootstrapK()
		if k := q.opts.BootstrapK; k > 0 { // the per-query cap
			opt.BootstrapK = min(opt.BootstrapK, k)
		}
	}
	opt.Diagnostics = opt.Diagnostics && !e.cfg.skipDiagnostics
	opt.VerdictFirst = verdictFirst
	start := time.Now()
	p, err := plan.Build(q.def, opt)
	q.stage(obs.StageRecord{Stage: obs.StagePlan, SampleRows: n, K: opt.BootstrapK,
		Diagnostics: opt.Diagnostics}, start)
	if err != nil {
		return nil, fmt.Errorf("core: %s: plan: %w", q.label(), err)
	}
	return p, nil
}

// answerFromResult turns an executor result into an Answer: error bars per
// aggregate (the estimate stage) and diagnostic verdicts.
func (e *Engine) answerFromResult(q *request, p *plan.Plan, res *exec.Result, st *exec.StoredTable, start time.Time) *Answer {
	ans := &Answer{
		SQL:            q.sql,
		SampleRows:     res.SampleRows,
		Plan:           p,
		Counters:       res.Counters,
		PopulationRows: st.PopRows,
		Selectivity:    scanSelectivity(res.Counters),
	}
	estStart := time.Now()
	est := obs.StageRecord{Stage: obs.StageEstimate}
	for _, g := range res.Groups {
		ga := GroupAnswer{Key: g.Key, Aggs: make([]AggAnswer, 0, len(g.Aggs))}
		for _, out := range g.Aggs {
			aa := AggAnswer{
				Name:      out.Spec.Alias,
				Estimate:  out.Value,
				Diagnosis: Diagnosis{DiagnosticOK: true},
			}
			iv, technique := errorBar(out)
			aa.ErrorBar = iv
			aa.Technique = technique
			aa.RelErr = iv.RelativeError()
			if len(out.Bootstrap) > ans.BootstrapKUsed {
				ans.BootstrapKUsed = len(out.Bootstrap)
			}
			if !math.IsNaN(aa.RelErr) && aa.RelErr > est.MaxRelErr {
				est.MaxRelErr = aa.RelErr
			}
			switch technique {
			case "closed-form":
				est.ClosedForm++
			case "bootstrap":
				est.Bootstrapped++
			default:
				est.Unbarred++
			}
			if out.Diag != nil {
				aa.Diagnosis = diagnosisOf(out.Diag)
			}
			ga.Aggs = append(ga.Aggs, aa)
		}
		ans.Groups = append(ans.Groups, ga)
	}
	q.stage(est, estStart)
	ans.Elapsed = time.Since(start)
	return ans
}

// diagnosisOf is the diagnostic's verdict as an answer carries it.
func diagnosisOf(d *diagnostic.Result) Diagnosis {
	return Diagnosis{DiagnosticOK: d.OK, DiagnosticCause: d.Cause.String(),
		DiagnosticReason: d.Reason, DiagnosticRungsRun: d.RungsRun,
		DiagnosticDecidedAfter:     d.DecidedAfter,
		DiagnosticSubsampleQueries: d.SubsampleQueries, DiagnosticRungs: d.PerSize}
}

// scanSelectivity derives the predicate pass rate from one execution's
// counters (-1 when nothing was scanned).
func scanSelectivity(c exec.Counters) float64 {
	if c.RowsScanned <= 0 {
		return -1
	}
	return float64(c.RowsAfterFilter) / float64(c.RowsScanned)
}

// errorBar serves one aggregate's confidence interval from the estimator
// its θ admits (DESIGN.md §32): the closed form the executor computed when
// out.Query has one, otherwise the bootstrap distribution the executor drew.
// Either way it is the ξ the diagnostic validated for that θ. An aggregate
// count-first rejected has no values and no bar (DESIGN.md §35), and a
// closed-form fold over no rows is the bar Interval{NaN, NaN}, served as none.
func errorBar(out exec.AggOutput) (estimator.Interval, string) {
	closedForm := out.Query.ClosedFormApplicable()
	switch {
	case closedForm && len(out.Values) > 0:
		return out.ClosedForm, "closed-form"
	case out.Values == nil || closedForm || len(out.Bootstrap) == 0:
		return estimator.Interval{Center: out.Value, HalfWidth: math.NaN()}, "none"
	}
	half := stats.SymmetricHalfWidth(out.Bootstrap, out.Value, estimator.ConfidenceLevel)
	return estimator.Interval{Center: out.Value, HalfWidth: half}, "bootstrap"
}

// fallbackExact runs the query exactly as a fallback stage, which holds the
// exact run's stages and lasts until it ends.
func (e *Engine) fallbackExact(q *request, reason string) (*Answer, error) {
	start := time.Now()
	i := q.stage(obs.StageRecord{Stage: obs.StageFallback, Reason: reason}, start)
	ans, err := e.runExact(q, true)
	q.stages[i].Ms = ms(time.Since(start))
	return ans, err
}

// applyFallback re-answers exactly any aggregate whose diagnostic rejected
// error estimation, replacing its entry in the answer — when the fallback
// policy says rejects are replaced at all. A group the exact answer has and
// the sample's lacks had no filtered sample row, under the diagnostic's
// floor: it joins the answer, in key order, exact and rejected too_few_rows.
// A grouped answer with no group at all is such a reject of every group the
// table has, as the ungrouped answer over no row is rejected too_few_rows.
func (e *Engine) applyFallback(q *request, ans *Answer) error {
	needed := len(q.def.GroupBy) > 0 && len(ans.Groups) == 0
	for _, g := range ans.Groups {
		for _, a := range g.Aggs {
			if !a.DiagnosticOK {
				needed = true
			}
		}
	}
	if !needed || !e.exactOnReject(q.opts) {
		return nil
	}
	exact, err := e.fallbackExact(q, "diagnostic rejected")
	if err != nil {
		return err
	}
	// Both answers list their groups in key order, and every key of the
	// sample is a key of the full table.
	groups := make([]GroupAnswer, 0, len(exact.Groups))
	sampled := ans.Groups
	tooFew := diagnosisOf(diagnostic.TooFewRows())
	for _, ex := range exact.Groups {
		for len(sampled) > 0 && sampled[0].Key < ex.Key {
			groups, sampled = append(groups, sampled[0]), sampled[1:]
		}
		if len(sampled) == 0 || sampled[0].Key != ex.Key {
			for ai := range ex.Aggs {
				ex.Aggs[ai].Diagnosis = tooFew
			}
			groups = append(groups, ex)
			continue
		}
		g := sampled[0]
		sampled = sampled[1:]
		for ai := range g.Aggs {
			a := &g.Aggs[ai]
			if a.DiagnosticOK {
				continue
			}
			rejected := a.Diagnosis
			*a = ex.Aggs[ai]
			a.Diagnosis = rejected
		}
		groups = append(groups, g)
	}
	ans.Groups = append(groups, sampled...)
	// Selectivity stays the approximate pass's: the fallback's rows say
	// nothing about the sample the answer was planned on.
	ans.Counters.Add(exact.Counters)
	ans.Elapsed += exact.Elapsed
	return nil
}
