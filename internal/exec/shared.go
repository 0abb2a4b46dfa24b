package exec

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/plan"
)

// SharedItem is one query's slot in a shared-scan batch: its plan, its own
// cancellation context (nil means the batch context) and its own Config —
// the query's seed drives its bootstrap streams exactly as in solo
// execution.
type SharedItem struct {
	Ctx  context.Context
	Plan *plan.Plan
	Cfg  Config
}

// RunShared executes a batch of plans against the SAME stored table with
// ONE physical pass (§5.3.1's scan consolidation lifted across queries):
// every distinct filter predicate and projection expression in the batch is
// evaluated once per partition, and each query's bootstrap/diagnostic
// pipeline then runs over its share of the pass, in parallel, under its own
// context. Results and confidence intervals are bit-identical to running
// each plan alone (a batch of one, which is what Run does for a sampled
// plan): scans contribute no randomness, and all resampling randomness
// derives from per-(seed, stream) RNGs that do not depend on how the scan
// was performed.
//
// Plans that are identical (same Identity, aliases included, and seed) are
// executed once; followers receive the leader's groups with zeroed counters
// and no stages, so summing Counters across the batch still meters the
// physical work exactly once.
//
// Errors are per-item: one query's bad predicate or cancelled context does
// not fail its batchmates. Cancelling ctx (the batch context, used for the
// shared scan) fails every item still in flight.
func RunShared(ctx context.Context, items []SharedItem, tables map[string]*StoredTable, udfs Registry) ([]*Result, []error) {
	results := make([]*Result, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		return results, errs
	}

	// Resolve plans and dedup identical ones. Every item must target the
	// same stored table — the batch former groups by (table, sample), so a
	// mismatch here is a caller bug surfaced per-item, not a panic.
	type distinct struct {
		item  int   // leader item index
		dupes []int // follower items with identical plans
		plan  *plan.Plan
	}
	var st *StoredTable
	var distincts []*distinct
	bySig := map[string]*distinct{}
	for i, it := range items {
		table := it.Plan.Def.Table
		ist, ok := tables[table]
		if !ok {
			errs[i] = fmt.Errorf("exec: unknown table %q", table)
			continue
		}
		if st == nil {
			st = ist
		} else if ist != st {
			errs[i] = fmt.Errorf("exec: shared batch mixes stored tables (%q is not the batch's table)",
				table)
			continue
		}
		sig := fmt.Sprintf("%d|%s", it.Cfg.Seed, it.Plan.Identity())
		if d, ok := bySig[sig]; ok {
			d.dupes = append(d.dupes, i)
			continue
		}
		d := &distinct{item: i, plan: it.Plan}
		bySig[sig] = d
		distincts = append(distincts, d)
	}
	if st == nil {
		return results, errs
	}
	tbl := st.Data

	// One physical pass for all distinct plans. Each member's scan stage is
	// the whole shared pass, carrying that member's counter share.
	// A verdict-first plan with the diagnostic on lets the pass count first.
	members := make([]*plan.QueryDef, len(distincts))
	verdictRows := make([]int, len(distincts))
	for di, d := range distincts {
		members[di] = d.plan.Def
		if o := d.plan.Opt; o.Diagnostics && o.VerdictFirst {
			verdictRows[di] = o.SampleRows
		}
	}
	scanStart := time.Now()
	bases, scanErrs := scanFilterProjectMulti(ctx, members, verdictRows, tbl, items[distincts[0].item].Cfg)
	scanDur := time.Since(scanStart)

	// Fan back out: every distinct plan's downstream pipeline (bootstrap,
	// diagnostic) runs concurrently under its own context.
	var wg sync.WaitGroup
	for di, d := range distincts {
		if scanErrs[di] != nil {
			errs[d.item] = scanErrs[di]
			continue
		}
		wg.Add(1)
		go func(di int, d *distinct) {
			defer wg.Done()
			it := items[d.item]
			base := bases[di]
			res := &Result{SampleRows: tbl.NumRows(), Counters: base.counters,
				Scan: StageTime{Start: scanStart, Dur: scanDur, Counters: base.counters}}
			ictx := it.Ctx
			if ictx == nil {
				ictx = ctx
			}
			if err := runDownstream(ictx, d.plan, st, base, udfs, it.Cfg, res); err != nil {
				errs[d.item] = err
				return
			}
			results[d.item] = res
		}(di, d)
	}
	wg.Wait()

	// Followers of deduped plans share the leader's groups. The physical
	// work happened exactly once, on the leader: a follower's result carries
	// no counters and no stages.
	for _, d := range distincts {
		for _, f := range d.dupes {
			if errs[d.item] != nil {
				errs[f] = errs[d.item]
				continue
			}
			lead := results[d.item]
			results[f] = &Result{Groups: lead.Groups, SampleRows: lead.SampleRows}
		}
	}
	return results, errs
}
