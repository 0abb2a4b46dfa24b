package core

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// RunOptions is one query's request. The zero value is a plain request —
// the §5 pipeline on the sample planFirst chooses, each aggregate the
// diagnostic rejects re-answered exactly, or the exact plan when the block
// table answers the query for less decode than the sample would cost, or
// when no group of the sample can be diagnosed. Exact asks for the exact
// plan outright. The answer cache serves and stores plain requests only.
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
}

// plain reports whether the request is not an exact one.
func (o RunOptions) plain() bool {
	return !o.Exact
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
	// the most rows one group can filter to in the sample of sampleRows rows
	// it skipped (obs.PlanTooFewRows).
	route                     string
	plannedBlocks, sampleRows int
	ceiling                   exec.Ceiling
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
	var replay *Answer
	if opts.plain() {
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

// executeOnce runs the request on the sample planFirst names, and
// applyFallback closes its answer. A request planFirst names no sample for —
// an exact one, or one on a table with no sample — runs the exact plan. A
// run, or a plan, on a sample that fails returns that sample with its error.
func (e *Engine) executeOnce(q *request) (*Answer, *exec.StoredTable, error) {
	start := time.Now() // the plan stage covers the routing
	st, err := q.planFirst()
	switch {
	case err != nil:
		return nil, st, err
	case st == nil:
		ans, err := e.runExact(q, start, false)
		return ans, nil, err
	}
	if err := q.ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", q.label(), err)
	}
	ans, err := e.runApproximate(q, st, start, e.exactOnReject())
	if err != nil {
		return nil, st, err
	}
	return ans, nil, e.applyFallback(q, ans)
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
// Config.noFallback: whether applyFallback replaces an aggregate the
// diagnostic rejects by an exact answer. When it does, the rejected
// aggregate's bootstrap is never read, so the plan may run verdict-first
// (plan.Options.VerdictFirst).
func (e *Engine) exactOnReject() bool {
	return !e.cfg.noFallback
}

// planFirst is the sample-choice policy, and the one reader of the catalog's
// samples for routing: it names the one sample a plain request runs on — a
// stratified sample matching its GROUP BY when every aggregate is
// scale-invariant (stratification biases population-scaled SUM/COUNT),
// otherwise the largest uniform sample. nil runs the exact plan: for an
// exact request, one on a table with no sample, one the block table answers
// for no more decode than the sample would cost (planExact), and one no
// group of the sample can be diagnosed for (planTooFew). When planTooFew
// cannot read a column of the sample it counts, planFirst returns the sample
// with the error.
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

// firstSample is the sample a plain request runs on (see planFirst).
func (q *request) firstSample() *exec.StoredTable {
	samples := q.rt.samples
	if len(q.def.GroupBy) == 1 && scaleInvariant(q.def) {
		for _, s := range q.rt.stratified {
			if strings.EqualFold(s.keyColumn, q.def.GroupBy[0]) {
				return s.st
			}
		}
	}
	if len(samples) == 0 {
		return nil
	}
	return samples[len(samples)-1]
}

// planExact reports whether the exact plan answers the request from the
// block table for no more decode than a scan of the sample st: the query is
// ungrouped, every aggregate is a MIN or MAX of a bare numeric column, and
// exec.ExtremeDecode predicts no more column blocks on the full table than
// on st. Such an aggregate is the diagnostic's most frequent reject (the
// paper's Fig. 3), and the exact answer it falls back to then costs a scan
// of the sample besides. It records the prediction on the request, for the
// plan stage and EXPLAIN.
func (q *request) planExact(st *exec.StoredTable) bool {
	exact, ok := exec.ExtremeDecode(&exec.StoredTable{Data: q.rt.full}, q.def)
	if !ok {
		return false
	}
	if sampled, _ := exec.ExtremeDecode(st, q.def); exact > sampled {
		return false
	}
	q.route, q.plannedBlocks = obs.PlanBlockTable, exact
	return true
}

// planTooFew reports whether every aggregate of the request is certain to be
// rejected too_few_rows on the sample st and re-answered exactly: the engine
// replaces rejects, the diagnostic runs, every aggregate is diagnosed over
// its group's filtered rows, and diagnostic.Ladder finds no ladder in the
// most rows any one group can filter to in st under the request's predicate.
// That is its KeyCeiling: for a grouped request, a GROUP BY key's rows in
// the whole sample or, tighter, under the predicate's window on a range
// column or its equality on a string column; for an ungrouped one, the rows
// of the equality's values, in the window when there is one. An ungrouped
// SUM or COUNT is diagnosed over every sample row, the filter's failures
// masked to zero (exec's colKeyFor), so no ceiling puts it under the floor.
// Count-first would reach that verdict at the scan's barrier; this reaches
// it before the scan. It records the evidence on the request, for the plan
// stage and EXPLAIN.
// Counting reads the GROUP BY, equality and range columns of st, and its
// error is returned.
func (q *request) planTooFew(st *exec.StoredTable) (bool, error) {
	if !q.e.exactOnReject() || q.e.cfg.skipDiagnostics {
		return false, nil
	}
	key := ""
	if len(q.def.GroupBy) > 0 {
		key = q.def.GroupBy[0]
	} else if !scaleInvariant(q.def) {
		return false, nil // a masked SUM or COUNT
	}
	ceiling, err := st.KeyCeiling(q.ctx, key, q.def.Where, q.e.execConfig())
	if err != nil {
		return false, err
	}
	n := st.Data.NumRows()
	if sizes, diagnosed := diagnostic.Ladder(n, ceiling.Rows); sizes != nil || !diagnosed {
		return false, nil // a group may clear the floor, or no group is diagnosed
	}
	q.route, q.ceiling, q.sampleRows = obs.PlanTooFewRows, ceiling, n
	return true, nil
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

// runExact executes the query on the full table with no sampling pipeline,
// its plan stage begun at start. A fallback's run is nested: its stages
// belong to the fallback stage rather than forming a second top-level
// pipeline.
func (e *Engine) runExact(q *request, start time.Time, nested bool) (*Answer, error) {
	p, err := e.buildExactPlan(q, start, nested)
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

// runApproximate executes the full §5 pipeline on the given sample, its plan
// stage begun at start. verdictFirst (see exactOnReject) promises that the
// caller replaces every aggregate the diagnostic rejects with an exact
// answer, which lets the plan skip those aggregates' bootstrap.
func (e *Engine) runApproximate(q *request, st *exec.StoredTable, start time.Time, verdictFirst bool) (*Answer, error) {
	p, err := e.buildApproxPlan(q, st, start, verdictFirst)
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
// stage, begun at start — before the routing that chose the plan —, nested
// under a fallback when the run is one.
func (e *Engine) buildExactPlan(q *request, start time.Time, nested bool) (*plan.Plan, error) {
	p, err := plan.Build(q.def, plan.Options{})
	rec := obs.StageRecord{Stage: obs.StagePlan, Nested: nested}
	if !nested {
		rec.Reason, rec.PredictedBlocks = q.route, q.plannedBlocks
		rec.KeyCeiling, rec.CeilingColumn, rec.SampleRows = q.ceiling.Rows, q.ceiling.Column, q.sampleRows
	}
	q.stage(rec, start)
	if err != nil {
		return nil, fmt.Errorf("core: %s: plan: %w", q.label(), err)
	}
	return p, nil
}

// buildApproxPlan builds the §5 approximate plan for one query on one
// sample and records its plan stage, begun at start, for runApproximate and
// Explain.
func (e *Engine) buildApproxPlan(q *request, st *exec.StoredTable, start time.Time, verdictFirst bool) (*plan.Plan, error) {
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
	if !needed || !e.exactOnReject() {
		return nil
	}
	// The exact run is a fallback stage, which holds its stages and lasts
	// until it ends.
	start := time.Now()
	i := q.stage(obs.StageRecord{Stage: obs.StageFallback, Reason: "diagnostic rejected"}, start)
	exact, err := e.runExact(q, start, true)
	q.stages[i].Ms = ms(time.Since(start))
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
