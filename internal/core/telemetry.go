package core

import (
	"context"
	"strconv"
	"time"

	"repro/internal/estimator"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/watchdog"
)

// finishQuery hands the finished query to the engine's passive observers —
// the tracer, the structured event log, the durable history and the
// calibration watchdog — as one obs.QueryRecord, built once: every sink
// reads the same value, so they cannot tell different stories about one
// query, and the record is the same whether or not a tracer is attached. The
// observers consume only the finished record — no engine randomness, no
// answer mutation — so answers stay bit-identical with observers on or off
// (asserted by TestTelemetryDoesNotPerturbAnswers).
//
// Who the watchdog watches is a property of the answer: it ran on a sample
// (SampleRows > 0 — an aggregate rejected and then re-answered exactly still
// counts towards the reject-drift window) and is not a replay, which did no
// new statistical work. An exact answer carries no estimated interval to hold
// to account, whichever request produced it.
func (e *Engine) finishQuery(q *request, ans *Answer, err error) {
	watch := e.wd != nil && ans != nil && ans.SampleRows > 0 && !ans.Cached
	if e.obs == nil && e.elog == nil && !watch && e.hist == nil && e.recorded == nil {
		return
	}
	rec := outcomeRecord(q, ans, err)
	e.obs.Finish(rec)
	e.elog.Emit(rec)
	e.hist.AppendQuery(rec)
	if watch {
		e.wd.Observe(rec)
	}
	if e.recorded != nil {
		e.recorded(rec)
	}
}

// outcomeRecord builds the one record of a finished query from the request —
// its id, trace context, timing and stages — and its answer. A failed query
// still produces a record — availability SLOs must see it — but carries no
// plan shape.
func outcomeRecord(q *request, ans *Answer, err error) *obs.QueryRecord {
	rec := &obs.QueryRecord{
		QID: q.id, TraceID: q.tc.TraceIDString(), TraceContext: q.tc,
		SQL: q.sql, Start: q.start, Outcome: obs.Outcome(err),
		TotalMs: ms(time.Since(q.start)), QueueWaitMs: ms(q.opts.QueueWait),
		Stages: q.stages, Selectivity: -1,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if len(q.stages) > 0 {
		rec.StagesMs = make(map[string]float64, len(q.stages))
		for _, s := range q.stages {
			if !s.Nested {
				rec.StagesMs[s.Stage] += s.Ms
			}
		}
	}
	if ans == nil {
		return rec
	}
	rec.Sample = sampleLabel(ans.SampleRows)
	rec.SampleRows = ans.SampleRows
	rec.Selectivity = ans.Selectivity
	rec.KUsed = ans.BootstrapKUsed
	rec.FellBack = ans.FellBack()
	rec.Cached = ans.Cached
	if ans.SampleRows > 0 && ans.PopulationRows > 0 {
		rec.SampleFraction = float64(ans.SampleRows) / float64(ans.PopulationRows)
	} else if ans.SampleRows == 0 {
		rec.SampleFraction = 1 // exact execution reads the population
	}
	var def *plan.QueryDef
	if ans.Plan != nil && ans.Plan.Def != nil {
		def = ans.Plan.Def
		rec.KBudget = ans.Plan.Opt.BootstrapK
		rec.Table = def.Table
		rec.Predicate = sql.PredicateSignature(def.Where)
	}
	aggs, rungs := 0, 0
	for _, g := range ans.Groups {
		aggs += len(g.Aggs)
		for _, a := range g.Aggs {
			rungs += len(a.DiagnosticRungs)
		}
	}
	rec.Aggs = make([]obs.AggRecord, 0, aggs)
	evidence := make([]obs.Rung, 0, rungs) // every aggregate's rungs, in one array
	for _, g := range ans.Groups {
		for ai, a := range g.Aggs {
			first := len(evidence)
			for _, st := range a.DiagnosticRungs {
				evidence = append(evidence, obs.Rung{Size: st.Size, TrueHalfWidth: st.TrueHalfWidth,
					Delta: st.Delta, Sigma: st.Sigma, Pi: st.Pi})
			}
			rec.Aggs = append(rec.Aggs, obs.AggRecord{
				Group:            g.Key,
				Name:             a.Name,
				Kind:             aggKindLabel(def, ai),
				Estimate:         a.Estimate,
				Center:           a.ErrorBar.Center,
				HalfWidth:        a.ErrorBar.HalfWidth,
				RelErr:           a.RelErr,
				Technique:        a.Technique,
				Rejected:         !a.DiagnosticOK,
				Cause:            a.DiagnosticCause,
				RungsRun:         a.DiagnosticRungsRun,
				DecidedAfter:     a.DiagnosticDecidedAfter,
				Reason:           a.DiagnosticReason,
				SubsampleQueries: a.DiagnosticSubsampleQueries,
				Rungs:            evidence[first:len(evidence):len(evidence)],
				Exact:            a.Exact,
			})
		}
	}
	return rec
}

// ms converts a duration to the record's milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stage records a stage that began at start and ends now, and returns its
// index in q.stages.
func (q *request) stage(s obs.StageRecord, start time.Time) int {
	s.StartMs, s.Ms = ms(start.Sub(q.start)), ms(time.Since(start))
	q.stages = append(q.stages, s)
	return len(q.stages) - 1
}

// execStages records an execution's stages — its scan and, on a sample, its
// diagnostic and bootstrap kernel — with the work each did, the payload
// bytes the scan checked, the resample estimates each drew and the
// diagnostic's verdicts; the bootstrap kernel ran at replicate count k.
func (q *request) execStages(res *exec.Result, k int, nested bool) {
	for _, s := range []struct {
		t   exec.StageTime
		rec obs.StageRecord
	}{
		{res.Scan, obs.StageRecord{Stage: obs.StageScan}},
		{res.Diagnostic, obs.StageRecord{Stage: obs.StageDiagnostic}},
		{res.Bootstrap, obs.StageRecord{Stage: obs.StageBootstrap, K: k}},
	} {
		if s.t.Start.IsZero() {
			continue
		}
		s.rec.Nested, s.rec.Work, s.rec.Resamples = nested, s.t.Counters, s.t.Resamples
		s.rec.Accepted, s.rec.Rejects, s.rec.VerifiedBytes = s.t.Accepted, s.t.Rejects, s.t.VerifiedBytes
		s.rec.StartMs, s.rec.Ms = ms(s.t.Start.Sub(q.start)), ms(s.t.Dur)
		q.stages = append(q.stages, s.rec)
	}
}

// aggKindLabel names the ai-th aggregate's kind ("AVG", ..., or the UDF
// name) from the executed plan's definition.
func aggKindLabel(def *plan.QueryDef, ai int) string {
	if def == nil || ai >= len(def.Aggs) {
		return ""
	}
	spec := def.Aggs[ai]
	if spec.Kind == estimator.UDF && spec.UDFName != "" {
		return spec.UDFName
	}
	return spec.Kind.String()
}

// sampleLabel names the calibration population a query belongs to: the
// sample's row count, or "exact" for full-data answers.
func sampleLabel(rows int) string {
	if rows <= 0 {
		return "exact"
	}
	return strconv.Itoa(rows)
}

// auditExact is the watchdog's auditor: it re-executes the audited query
// exactly — outside the trace ring and the watchdog's own observation loop,
// so audits never feed back into the statistics they validate — and returns
// the ground-truth value per aggregate output. Its event-log line carries
// the audited record's qid and trace id, so it joins back to the query it
// audited. Exact execution is deterministic, so audits consume no engine
// randomness.
func (e *Engine) auditExact(ctx context.Context, rec *obs.QueryRecord) (map[watchdog.AggInstance]float64, error) {
	q := &request{ctx: ctx, id: rec.QID, sql: rec.SQL, start: time.Now()}
	if err := e.analyze(q); err != nil {
		return nil, err
	}
	ans, err := e.runExact(q, time.Now(), false)
	if e.elog != nil {
		line := &obs.QueryRecord{Kind: "audit", QID: rec.QID, TraceID: rec.TraceID,
			SQL: rec.SQL, Outcome: obs.Outcome(err),
			TotalMs: ms(time.Since(q.start))}
		if err != nil {
			line.Err = err.Error()
		}
		e.elog.Emit(line)
	}
	if err != nil {
		return nil, err
	}
	out := make(map[watchdog.AggInstance]float64)
	for _, g := range ans.Groups {
		for _, a := range g.Aggs {
			out[watchdog.AggInstance{Group: g.Key, Agg: a.Name}] = a.Estimate
		}
	}
	return out, nil
}
