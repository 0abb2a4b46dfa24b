package core

import (
	"context"
	"strconv"
	"time"

	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/plan"
	"repro/internal/watchdog"
)

// finishQuery closes the trace and hands the finished query to the engine's
// passive observers — the structured event log, the durable history and the
// calibration watchdog — as one obs.QueryRecord, built once: every sink
// reads the same value, so they cannot tell different stories about one
// query. The observers consume only the finished answer and trace snapshot —
// no engine randomness, no answer mutation — so answers stay bit-identical
// with observers on or off (asserted by TestTelemetryDoesNotPerturbAnswers).
//
// Who the watchdog watches is a property of the answer: it ran on a sample
// (SampleRows > 0 — an aggregate rejected and then re-answered exactly still
// counts towards the reject-drift window) and is not a replay, which did no
// new statistical work. An exact answer carries no estimated interval to hold
// to account, whichever request produced it.
func (e *Engine) finishQuery(q *request, ans *Answer, err error) {
	q.qt.Finish(err)
	watch := e.wd != nil && ans != nil && ans.SampleRows > 0 && !ans.Cached
	if e.elog == nil && !watch && e.hist == nil {
		return
	}
	rec := outcomeRecord(q, ans, err)
	e.elog.Emit(rec)
	e.hist.AppendQuery(rec)
	if watch {
		e.wd.Observe(rec)
	}
}

// outcomeRecord builds the one record of a finished query. Identity,
// outcome and latency come from the trace snapshot; with the tracer
// disabled they are synthesized from the request, its trace context (q.ctx
// carries it either way) and the answer. A failed query still produces a
// record — availability SLOs must see it — but carries no plan shape.
func outcomeRecord(q *request, ans *Answer, err error) *obs.QueryRecord {
	rec := &obs.QueryRecord{SQL: q.sql, Selectivity: -1}
	if snap, ok := q.qt.Snapshot(); ok {
		rec.QID = snap.ID
		rec.TraceID = snap.TraceID
		rec.Outcome = snap.Outcome
		rec.Err = snap.Err
		rec.TotalMs = snap.TotalMs
		rec.QueueWaitMs = snap.QueueWaitMs
		rec.StagesMs = obs.StageLatencies(snap.Spans)
	} else {
		rec.Outcome = obs.Outcome(err)
		rec.QueueWaitMs = float64(q.opts.QueueWait) / float64(time.Millisecond)
		if tc, ok := obs.TraceFromContext(q.ctx); ok {
			rec.TraceID = tc.TraceIDString()
		}
		if err != nil {
			rec.Err = err.Error()
		}
		if ans != nil {
			rec.TotalMs = float64(ans.Elapsed) / float64(time.Millisecond)
		}
	}
	if ans == nil {
		return rec
	}
	rec.Sample = sampleLabel(ans.SampleRows)
	rec.SampleRows = ans.SampleRows
	rec.Selectivity = ans.Selectivity
	rec.KUsed = ans.BootstrapKUsed
	rec.SharedScan = ans.SharedScan
	rec.FellBack = ans.FellBack()
	rec.Cached = ans.Cached
	rec.BlocksSkipped = ans.Counters.BlocksSkipped
	rec.BlocksDecoded = ans.Counters.BlocksDecoded
	rec.DecodeNs = ans.Counters.DecodeNanos
	rec.CacheHits = ans.Counters.CacheHits
	rec.CacheBytes = ans.Counters.CacheBytes
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
		rec.Predicate = history.PredicateSignature(def.Where)
	}
	for _, g := range ans.Groups {
		for ai, a := range g.Aggs {
			rec.Aggs = append(rec.Aggs, obs.AggRecord{
				Group:        g.Key,
				Name:         a.Name,
				Kind:         aggKindLabel(def, ai),
				Estimate:     a.Estimate,
				Center:       a.ErrorBar.Center,
				HalfWidth:    a.ErrorBar.HalfWidth,
				RelErr:       a.RelErr,
				Technique:    a.Technique,
				Rejected:     !a.DiagnosticOK,
				Cause:        a.DiagnosticCause,
				RungsRun:     a.DiagnosticRungsRun,
				DecidedAfter: a.DiagnosticDecidedAfter,
				Exact:        a.Exact,
			})
		}
	}
	return rec
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
	def, rt, err := e.analyze(nil, rec.SQL)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ans, err := e.runExact(&request{ctx: ctx, sql: rec.SQL, def: def, rt: rt}, nil)
	if e.elog != nil {
		line := &obs.QueryRecord{Kind: "audit", QID: rec.QID, TraceID: rec.TraceID,
			SQL: rec.SQL, Outcome: obs.Outcome(err),
			TotalMs: float64(time.Since(start)) / float64(time.Millisecond)}
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
