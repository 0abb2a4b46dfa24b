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

// finishQuery closes the trace and fans the finished query out to the
// engine's passive observers: the structured event log (one JSON record
// per query) and the calibration watchdog. Both consume only the finished
// answer and trace snapshot — no engine randomness, no answer mutation —
// so answers stay bit-identical with observers on or off (asserted by
// TestTelemetryDoesNotPerturbAnswers).
//
// Who the watchdog watches is a property of the answer: it ran on a sample
// (SampleRows > 0 — an aggregate rejected and then re-answered exactly still
// counts towards the reject-drift window) and is not a replay, which did no
// new statistical work. An exact answer carries no estimated interval to hold
// to account, whichever request produced it.
//
// q.ctx supplies the query's trace context when the tracer is disabled (the
// tracer-built snapshot already carries it via SetTraceContext), so the
// trace id reaches history and watchdog records either way.
func (e *Engine) finishQuery(q *request, ans *Answer, err error) {
	qt, query := q.qt, q.sql
	qt.Finish(err)
	watch := e.wd != nil && ans != nil && ans.SampleRows > 0 && !ans.Cached
	if e.elog == nil && !watch && e.hist == nil {
		return
	}
	snap, ok := qt.Snapshot()
	if !ok {
		// Tracer disabled but an observer is attached: synthesize the
		// identity fields the observers need.
		snap = obs.TraceSnapshot{SQL: query, Outcome: obs.Outcome(err)}
		if tc, tok := obs.TraceFromContext(q.ctx); tok {
			snap.TraceID = tc.TraceIDString()
			snap.SpanID = tc.SpanIDString()
			snap.ParentSpanID = tc.ParentString()
		}
		if err != nil {
			snap.Err = err.Error()
		}
		if ans != nil {
			snap.TotalMs = float64(ans.Elapsed) / float64(time.Millisecond)
		}
	}
	if e.elog != nil {
		ev := obs.QueryEvent{Trace: snap}
		if ans != nil {
			ev.SampleRows = ans.SampleRows
			ev.FellBack = ans.FellBack()
			ev.BlocksSkipped = ans.Counters.BlocksSkipped
			ev.BlocksDecoded = ans.Counters.BlocksDecoded
			ev.DecodeNs = ans.Counters.DecodeNanos
			ev.SharedScan = ans.SharedScan
			ev.Cached = ans.Cached
			ev.CacheHits = ans.Counters.CacheHits
			ev.CacheBytes = ans.Counters.CacheBytes
			if ans.Plan != nil {
				ev.BootstrapK = ans.Plan.Opt.BootstrapK
			}
			for _, g := range ans.Groups {
				for _, a := range g.Aggs {
					ev.Aggs = append(ev.Aggs, obs.AggEvent{
						Group:     g.Key,
						Name:      a.Name,
						Estimate:  a.Estimate,
						Lo:        a.ErrorBar.Lo(),
						Hi:        a.ErrorBar.Hi(),
						RelErr:    a.RelErr,
						Technique: a.Technique,
						Verdict:   verdict(a.DiagnosticOK),
						Exact:     a.Exact,
					})
				}
			}
		}
		e.elog.Emit(ev)
	}
	if e.hist != nil {
		e.hist.AppendQuery(historyRecord(snap, query, ans, err))
	}
	if watch {
		e.wd.Observe(watchdogRecord(snap, ans))
	}
}

// historyRecord converts a finished query into the durable history
// record. Failed queries still produce a (minimal) record — availability
// SLOs must see them — but carry no plan shape to profile.
func historyRecord(snap obs.TraceSnapshot, query string, ans *Answer, err error) history.QueryRecord {
	q := history.QueryRecord{
		QID:         snap.ID,
		TraceID:     snap.TraceID,
		SQL:         query,
		Outcome:     snap.Outcome,
		TotalMs:     snap.TotalMs,
		QueueWaitMs: snap.QueueWaitMs,
		StagesMs:    obs.StageLatencies(snap.Spans),
		Selectivity: -1,
	}
	if q.Outcome == "" {
		q.Outcome = obs.Outcome(err)
	}
	if ans == nil {
		return q
	}
	q.Sample = sampleLabel(ans.SampleRows)
	q.Selectivity = ans.Selectivity
	q.KUsed = ans.BootstrapKUsed
	q.SharedScan = ans.SharedScan
	q.FellBack = ans.FellBack()
	if ans.SampleRows > 0 && ans.PopulationRows > 0 {
		q.SampleFraction = float64(ans.SampleRows) / float64(ans.PopulationRows)
	} else if ans.SampleRows == 0 {
		q.SampleFraction = 1 // exact execution reads the population
	}
	var def *plan.QueryDef
	if ans.Plan != nil {
		def = ans.Plan.Def
		q.KBudget = ans.Plan.Opt.BootstrapK
	}
	if def != nil {
		q.Table = def.Table
		q.Predicate = history.PredicateSignature(def.Where)
	}
	for _, g := range ans.Groups {
		for ai, a := range g.Aggs {
			q.Aggs = append(q.Aggs, history.AggSample{
				Kind:      aggKindLabel(def, ai),
				RelErr:    a.RelErr,
				Technique: a.Technique,
				Rejected:  !a.DiagnosticOK,
				Exact:     a.Exact,
			})
		}
	}
	return q
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

// observeAudit is the watchdog→history bridge: every audit outcome
// becomes a durable audit record and folds into the matching workload
// profile's empirical-coverage window.
func (e *Engine) observeAudit(o watchdog.AuditOutcome) {
	e.hist.AppendAudit(history.AuditRecord{
		QID:       o.QID,
		TraceID:   o.TraceID,
		Table:     o.Table,
		Sample:    o.Sample,
		Predicate: o.Predicate,
		Kind:      o.Kind,
		Agg:       o.Agg,
		Group:     o.Group,
		Covered:   o.Covered,
		Truth:     o.Truth,
		Lo:        o.Interval.Lo(),
		Hi:        o.Interval.Hi(),
	})
}

func verdict(ok bool) string {
	if ok {
		return "accept"
	}
	return "reject"
}

// watchdogRecord converts a finished answer into the watchdog's view: one
// AggRecord per aggregate output, keyed by the sample it was answered on.
func watchdogRecord(snap obs.TraceSnapshot, ans *Answer) watchdog.Record {
	rec := watchdog.Record{QID: snap.ID, TraceID: snap.TraceID,
		SQL: ans.SQL, Sample: sampleLabel(ans.SampleRows)}
	var def *plan.QueryDef
	if ans.Plan != nil {
		def = ans.Plan.Def
	}
	if def != nil {
		rec.Table = def.Table
		rec.Predicate = history.PredicateSignature(def.Where)
	}
	for _, g := range ans.Groups {
		for ai, a := range g.Aggs {
			rec.Aggs = append(rec.Aggs, watchdog.AggRecord{
				Group:     g.Key,
				Agg:       a.Name,
				Kind:      aggKindLabel(def, ai),
				Interval:  a.ErrorBar,
				Technique: a.Technique,
				Rejected:  !a.DiagnosticOK,
				Exact:     a.Exact,
			})
		}
	}
	return rec
}

// sampleLabel names the calibration population a query belongs to: the
// sample's row count, or "exact" for full-data answers.
func sampleLabel(rows int) string {
	if rows <= 0 {
		return "exact"
	}
	return strconv.Itoa(rows)
}

// auditExact is the watchdog's auditor: it re-executes the query exactly —
// outside the trace ring and the watchdog's own observation loop, so
// audits never feed back into the statistics they validate — and returns
// the ground-truth value per aggregate output. Exact execution is
// deterministic, so audits consume no engine randomness.
func (e *Engine) auditExact(ctx context.Context, query string) (map[watchdog.AggInstance]float64, error) {
	def, rt, err := e.analyze(nil, query)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ans, err := e.runExact(&request{ctx: ctx, sql: query, def: def, rt: rt}, nil)
	if e.elog != nil {
		snap := obs.TraceSnapshot{
			SQL:     query,
			Outcome: obs.Outcome(err),
			TotalMs: float64(time.Since(start)) / float64(time.Millisecond),
		}
		if err != nil {
			snap.Err = err.Error()
		}
		e.elog.Emit(obs.QueryEvent{Trace: snap, Kind: "audit"})
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
