package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
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
// keys are equal. Queries that would run exactly (no usable sample) are
// not batchable: the exact path is the fallback of last resort and is kept
// latency-isolated. The key embeds the sample's storage identity, so a
// BuildSamples call between two BatchKey calls naturally separates old and
// new submissions.
func (e *Engine) BatchKey(query string) (string, bool) {
	def, rt, err := e.analyze(nil, query)
	if err != nil {
		return "", false
	}
	st := e.pickSample(def, rt)
	if st == nil {
		return "", false
	}
	return fmt.Sprintf("%s/%p", def.Table, st.Data), true
}

// cloneAnswer copies a memoized answer for a deduped batch member: same
// groups, error bars and techniques (the inputs are byte-identical), but
// the member's own plan, counter share and wall-clock. Groups are
// deep-copied so a later per-member exact fallback cannot leak into a
// batchmate's answer.
func cloneAnswer(lead *Answer, p *plan.Plan, counters exec.Counters, start time.Time) *Answer {
	ans := *lead
	ans.Plan = p
	ans.Counters = counters
	ans.Groups = append([]GroupAnswer(nil), lead.Groups...)
	for gi := range ans.Groups {
		ans.Groups[gi].Aggs = append([]AggAnswer(nil), lead.Groups[gi].Aggs...)
	}
	if lead.Simulated != nil {
		sim := *lead.Simulated
		ans.Simulated = &sim
	}
	ans.Elapsed = time.Since(start)
	return &ans
}

// RunSharedBatch answers a batch of queries with one shared physical pass
// (exec.RunShared) where possible. Members are grouped on the sample the
// engine would pick for them solo; members picking a different sample, or
// no sample at all (exact execution), run individually and concurrently —
// the batch former upstream groups by BatchKey, so in the common case
// every member shares the scan. Each member keeps its own trace, event-log
// record, watchdog observation, per-member context and rejected-diagnostic
// fallback, and its answer is bit-identical to what RunWithOptions would
// have produced, because scans contribute no randomness.
func (e *Engine) RunSharedBatch(reqs []BatchRequest) []BatchResponse {
	out := make([]BatchResponse, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	gen := e.gen.Load()

	type memberState struct {
		ctx   context.Context
		qt    *obs.QueryTrace
		def   *plan.QueryDef
		rt    *registeredTable
		st    *exec.StoredTable
		p     *plan.Plan
		opt   plan.Options
		start time.Time
	}
	states := make([]*memberState, len(reqs))
	var shared, solo []int
	var batchST *exec.StoredTable
	for i, r := range reqs {
		ms := &memberState{ctx: r.Ctx, start: time.Now()}
		if ms.ctx == nil {
			ms.ctx = context.Background()
		}
		var tc obs.TraceContext
		ms.ctx, tc = obs.EnsureTrace(ms.ctx)
		ms.qt = e.obs.StartQuery(r.Query)
		ms.qt.SetTraceContext(tc)
		if r.Opts.QueueWait > 0 {
			ms.qt.SetQueueWait(r.Opts.QueueWait)
		}
		states[i] = ms
		// Answer reuse applies to batch members too: a replay costs no slot
		// in the shared pass. Replays are answer-neutral because re-execution
		// would be bit-identical anyway (randomness is (seed, stream) derived).
		if hit := e.answerCacheGet(gen, r.Query, r.Opts.BootstrapK); hit != nil {
			hit.Elapsed = time.Since(ms.start)
			ms.qt.Root().SetAttr("answer_cached", true)
			out[i] = BatchResponse{Ans: hit}
			e.finishQuery(ms.ctx, ms.qt, r.Query, hit, nil, true)
			continue
		}
		def, rt, err := e.analyze(ms.qt, r.Query)
		if err != nil {
			out[i].Err = err
			e.finishQuery(ms.ctx, ms.qt, r.Query, nil, err, true)
			continue
		}
		ms.def, ms.rt = def, rt
		ms.st = e.pickSample(def, rt)
		if ms.st == nil {
			solo = append(solo, i)
			continue
		}
		if batchST == nil {
			batchST = ms.st
		}
		if ms.st != batchST {
			// Different sample than the batch's: still answered, just not
			// from the shared pass.
			solo = append(solo, i)
			continue
		}
		p, opt, err := e.buildApproxPlan(ms.qt, r.Query, def, ms.st, r.Opts.BootstrapK,
			!e.cfg.DisableFallback)
		if err != nil {
			out[i].Err = err
			e.finishQuery(ms.ctx, ms.qt, r.Query, nil, err, true)
			continue
		}
		ms.p, ms.opt = p, opt
		shared = append(shared, i)
	}

	// Mismatched and exact members run individually, concurrent with the
	// shared pass.
	var wg sync.WaitGroup
	for _, i := range solo {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms := states[i]
			q := reqs[i].Query
			var ans *Answer
			var err error
			if ms.st == nil {
				ans, err = e.runExact(ms.ctx, ms.qt, ms.qt.Root(), q, ms.def, ms.rt)
			} else {
				ans, err = e.runApproximate(ms.ctx, ms.qt, q, ms.def, ms.rt, ms.st,
					reqs[i].Opts.BootstrapK, !e.cfg.DisableFallback)
				if err == nil && !e.cfg.DisableFallback {
					err = e.applyFallback(ms.ctx, ms.qt, ans, ms.def, ms.rt)
				}
			}
			if err != nil {
				out[i].Err = err
				e.finishQuery(ms.ctx, ms.qt, q, nil, err, true)
				return
			}
			e.answerCachePut(gen, q, reqs[i].Opts.BootstrapK, ans)
			out[i] = BatchResponse{Ans: ans}
			e.finishQuery(ms.ctx, ms.qt, q, ans, nil, true)
		}(i)
	}

	if len(shared) > 0 {
		items := make([]exec.SharedItem, len(shared))
		for si, i := range shared {
			ms := states[i]
			items[si] = exec.SharedItem{
				Ctx:  ms.ctx,
				Plan: ms.p,
				Cfg:  e.execConfig(ms.qt.Root()),
			}
		}
		first := states[shared[0]]
		tables := map[string]*exec.StoredTable{first.def.Table: batchST}
		results, errs := exec.RunShared(context.Background(), items, tables, e.udfRegistry())
		// Answer assembly is memoized alongside the executor's whole-plan
		// dedup: closed-form error bars walk the full projected column, so
		// recomputing them for members whose plans were deduped (identical
		// Explain rendering under one engine seed ⇒ identical Result) would
		// rebuild byte-identical answers the slow way.
		assembled := map[string]*Answer{}
		for si, i := range shared {
			ms := states[i]
			q := reqs[i].Query
			err := errs[si]
			var ans *Answer
			if err == nil {
				sig := ms.p.Explain()
				if lead, ok := assembled[sig]; ok {
					ans = cloneAnswer(lead, ms.p, results[si].Counters, ms.start)
				} else {
					ans, err = e.answerFromResult(ms.qt, q, ms.def, ms.opt, ms.p,
						results[si], ms.st, ms.start)
					if err == nil {
						assembled[sig] = ans
					}
				}
			} else {
				err = fmt.Errorf("core: %s: approximate execution: %w",
					e.queryID(ms.qt, q), err)
			}
			if err == nil {
				ans.SharedScan = true
				if !e.cfg.DisableFallback {
					err = e.applyFallback(ms.ctx, ms.qt, ans, ms.def, ms.rt)
				}
			}
			if err != nil {
				out[i].Err = err
				e.finishQuery(ms.ctx, ms.qt, q, nil, err, true)
				continue
			}
			e.answerCachePut(gen, q, reqs[i].Opts.BootstrapK, ans)
			out[i] = BatchResponse{Ans: ans}
			e.finishQuery(ms.ctx, ms.qt, q, ans, nil, true)
		}
	}
	wg.Wait()
	return out
}
