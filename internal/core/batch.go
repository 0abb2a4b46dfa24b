package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
)

// BatchRequest is one query's slot in a shared-scan batch submission.
type BatchRequest struct {
	// Ctx cancels this member only (nil = background). The shared physical
	// pass itself is not cancelled by a single member: it is one partition
	// sweep serving the whole batch, and batchmates still need it.
	Ctx   context.Context
	Query string
	Opts  RunOptions
}

// BatchResponse pairs one member's answer with its error; exactly one of
// the two is set.
type BatchResponse struct {
	Ans *Answer
	Err error
}

// BatchKey reports whether a query is eligible for shared-scan batching
// and, if so, an opaque key identifying the (table, sample) it would
// execute against — two queries are batchable together exactly when their
// keys are equal. Queries that would run exactly (no usable sample, or a
// plan the block table answers for less) are not batchable: the exact path
// shares no scan and is kept latency-isolated. The key embeds the sample's storage identity, so a
// BuildSamples call between two BatchKey calls naturally separates old and
// new submissions.
func (e *Engine) BatchKey(query string) (string, bool) {
	q := &request{sql: query}
	if e.analyze(q) != nil {
		return "", false
	}
	st := q.nextSample(nil, nil)
	if st == nil {
		return "", false
	}
	return fmt.Sprintf("%s/%p", q.def.Table, st.Data), true
}

// RunSharedBatch answers a batch of queries with one shared physical pass
// (exec.RunShared) where possible. Every member goes through the same begin
// and finish as RunWithOptions. Plain requests are grouped on the sample the
// engine would pick for them solo; a member picking a different sample, or no
// sample at all, or naming a mode (exact, error bound, time budget), goes
// through the same execute, individually and concurrently — the batch former
// upstream groups by BatchKey, so in the common case every member shares the
// scan. Each member keeps its own trace, event-log record, watchdog
// observation, per-member context and rejected-diagnostic fallback, and its
// answer is bit-identical to what RunWithOptions would have produced,
// because scans contribute no randomness.
func (e *Engine) RunSharedBatch(reqs []BatchRequest) []BatchResponse {
	out := make([]BatchResponse, len(reqs))
	done := func(i int, q *request, ans *Answer, err error) {
		out[i].Ans, out[i].Err = e.finish(q, ans, err)
	}
	type sharedMember struct {
		i int
		q *request
		p *plan.Plan
	}
	var shared []sharedMember
	var batchST *exec.StoredTable
	var solo sync.WaitGroup
	for i, r := range reqs {
		ctx := r.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		// Answer reuse applies to batch members too: a replay costs no slot
		// in the shared pass.
		req, ans, err := e.begin(ctx, r.Query, r.Opts, false)
		q := &req
		if ans != nil || err != nil {
			done(i, q, ans, err)
			continue
		}
		var st *exec.StoredTable
		if r.Opts.plain() {
			st = q.nextSample(nil, nil)
		}
		if batchST == nil {
			batchST = st
		}
		if st == nil || st != batchST {
			// Still answered, just not from the shared pass: individually,
			// concurrent with it.
			solo.Add(1)
			go func() {
				defer solo.Done()
				ans, err := e.execute(q)
				done(i, q, ans, err)
			}()
			continue
		}
		p, err := e.buildApproxPlan(q, st, e.exactOnReject(r.Opts))
		if err != nil {
			done(i, q, nil, err)
			continue
		}
		shared = append(shared, sharedMember{i, q, p})
	}

	if len(shared) > 0 {
		items := make([]exec.SharedItem, len(shared))
		for si, m := range shared {
			items[si] = exec.SharedItem{Ctx: m.q.ctx, Plan: m.p, Cfg: e.execConfig()}
		}
		tables := map[string]*exec.StoredTable{shared[0].q.def.Table: batchST}
		results, errs := exec.RunShared(context.Background(), items, tables, e.udfRegistry())
		// Answer assembly is memoized alongside the executor's whole-plan
		// dedup: closed-form error bars walk the full projected column, so
		// recomputing them for members whose plans were deduped (identical
		// plan.Identity under one engine seed ⇒ identical Result) would
		// rebuild byte-identical answers the slow way.
		assembled := map[string]*Answer{}
		for si, m := range shared {
			var ans *Answer
			err, sig := errs[si], m.p.Identity()
			if err == nil {
				m.q.execStages(results[si], m.p.Opt.BootstrapK, false)
			}
			switch lead := assembled[sig]; {
			case err != nil:
				err = fmt.Errorf("core: %s: approximate execution: %w", m.q.label(), err)
			case lead != nil:
				// Same groups, error bars and techniques (the inputs are
				// byte-identical), but the member's own SQL text, plan,
				// counter share and wall-clock; deep-copied, so a later
				// per-member exact fallback cannot leak into a batchmate's
				// answer.
				ans = lead.clone()
				ans.SQL, ans.Plan = m.q.sql, m.p
				ans.Counters, ans.Elapsed = results[si].Counters, time.Since(m.q.start)
			default:
				if ans, err = e.answerFromResult(m.q, m.p, results[si], batchST, m.q.start); err == nil {
					assembled[sig] = ans
				}
			}
			if err == nil {
				ans.SharedScan = true
				err = e.applyFallback(m.q, ans)
			}
			done(m.i, m.q, ans, err)
		}
	}
	solo.Wait()
	return out
}
