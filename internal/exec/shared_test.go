package exec

import (
	"context"
	"testing"

	"repro/internal/plan"
)

// resultsEqual asserts two Results are bit-identical in everything a query
// answer is built from: group keys, values, resample estimates and
// diagnostic verdicts.
func resultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (got=%v want=%v)", label, got == nil, want == nil)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want.Groups))
	}
	if got.SampleRows != want.SampleRows {
		t.Errorf("%s: sample rows %d != %d", label, got.SampleRows, want.SampleRows)
	}
	for gi := range want.Groups {
		g, w := got.Groups[gi], want.Groups[gi]
		if g.Key != w.Key {
			t.Fatalf("%s: group %d key %q != %q", label, gi, g.Key, w.Key)
		}
		if len(g.Aggs) != len(w.Aggs) {
			t.Fatalf("%s: group %q has %d aggs, want %d", label, g.Key, len(g.Aggs), len(w.Aggs))
		}
		for ai := range w.Aggs {
			a, b := g.Aggs[ai], w.Aggs[ai]
			if a.Value != b.Value {
				t.Errorf("%s: group %q agg %d value %v != %v", label, g.Key, ai, a.Value, b.Value)
			}
			if len(a.Bootstrap) != len(b.Bootstrap) {
				t.Fatalf("%s: group %q agg %d has %d resamples, want %d",
					label, g.Key, ai, len(a.Bootstrap), len(b.Bootstrap))
			}
			for k := range b.Bootstrap {
				if a.Bootstrap[k] != b.Bootstrap[k] {
					t.Fatalf("%s: group %q agg %d resample %d: %v != %v",
						label, g.Key, ai, k, a.Bootstrap[k], b.Bootstrap[k])
				}
			}
			if (a.Diag == nil) != (b.Diag == nil) {
				t.Fatalf("%s: group %q agg %d diagnostic presence differs", label, g.Key, ai)
			}
			if a.Diag != nil && (a.Diag.OK != b.Diag.OK || a.Diag.Reason != b.Diag.Reason) {
				t.Errorf("%s: group %q agg %d diagnostic %+v != %+v",
					label, g.Key, ai, a.Diag, b.Diag)
			}
		}
	}
}

func TestRunSharedMatchesSerial(t *testing.T) {
	tables := storedSessions(16*1024, 31)
	tables["Sessions"].Data.BuildZones()
	full := backingOpts(16 * 1024)
	queries := []struct {
		q   string
		opt plan.Options
	}{
		{"SELECT AVG(Time) FROM Sessions", full},
		{"SELECT COUNT(*), SUM(Time) FROM Sessions WHERE City = 'NYC'", full},
		{"SELECT City, AVG(Time) FROM Sessions GROUP BY City", full},
		{"SELECT PERCENTILE(Time, 0.5) FROM Sessions WHERE Time > 40", full},
		{"SELECT AVG(Time) FROM Sessions WHERE Time > 40", full},
		{"SELECT AVG(Time) FROM Sessions", plan.Options{}}, // no error estimation
	}

	// Serial reference: each plan through Run on its own.
	serial := make([]*Result, len(queries))
	for i, qq := range queries {
		p := mustPlan(t, qq.q, qq.opt)
		res, err := Run(context.Background(), p, tables, nil,
			Config{Workers: 4, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatalf("serial %q: %v", qq.q, err)
		}
		serial[i] = res
	}

	items := make([]SharedItem, len(queries))
	for i, qq := range queries {
		items[i] = SharedItem{
			Plan: mustPlan(t, qq.q, qq.opt),
			Cfg:  Config{Workers: 4, Seed: uint64(100 + i)},
		}
	}
	results, errs := RunShared(context.Background(), items, tables, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shared %q: %v", queries[i].q, err)
		}
	}
	var scans, subqueries int64
	for i := range queries {
		resultsEqual(t, queries[i].q, results[i], serial[i])
		scans += int64(results[i].Counters.Scans)
		subqueries += int64(results[i].Counters.Subqueries)
	}
	// The whole batch performed ONE physical pass; logical work is still
	// metered per member.
	if scans != 1 {
		t.Errorf("batch-summed Scans = %d, want 1", scans)
	}
	if subqueries != int64(len(queries)) {
		t.Errorf("batch-summed Subqueries = %d, want %d", subqueries, len(queries))
	}
}

func TestRunSharedDedupsIdenticalPlans(t *testing.T) {
	tables := storedSessions(8000, 32)
	opt := plan.Options{BootstrapK: 30}
	q := "SELECT PERCENTILE(Time, 0.5) FROM Sessions WHERE City = 'SF'"

	items := make([]SharedItem, 4)
	for i := range items {
		items[i] = SharedItem{Plan: mustPlan(t, q, opt), Cfg: Config{Workers: 2, Seed: 5}}
	}
	// A same-query, different-seed member must NOT be deduped with them:
	// its resample streams differ.
	other := SharedItem{Plan: mustPlan(t, q, opt), Cfg: Config{Workers: 2, Seed: 6}}
	items = append(items, other)

	results, errs := RunShared(context.Background(), items, tables, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	for i := 1; i < 4; i++ {
		resultsEqual(t, "follower", results[i], results[0])
		if c := results[i].Counters; c != (Counters{}) {
			t.Errorf("follower %d carries counters %+v, want zero", i, c)
		}
	}
	// Different seed: distinct resamples, same plain value.
	if results[4].Groups[0].Aggs[0].Value != results[0].Groups[0].Aggs[0].Value {
		t.Error("plain value differs across seeds")
	}
	b0, b4 := results[0].Groups[0].Aggs[0].Bootstrap, results[4].Groups[0].Aggs[0].Bootstrap
	same := true
	for k := range b0 {
		if b0[k] != b4[k] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical resample estimates")
	}
	var scans int64
	for _, r := range results {
		scans += int64(r.Counters.Scans)
	}
	if scans != 1 {
		t.Errorf("batch-summed Scans = %d, want 1", scans)
	}

	// The serial reference still matches through the dedup path.
	ref, err := Run(context.Background(), mustPlan(t, q, opt), tables, nil,
		Config{Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "dedup-vs-serial", results[0], ref)
}

func TestRunSharedPerItemErrors(t *testing.T) {
	tables := storedSessions(4000, 33)
	items := []SharedItem{
		{Plan: mustPlan(t, "SELECT AVG(Time) FROM Sessions", plan.Options{}),
			Cfg: Config{Workers: 2, Seed: 1}},
		{Plan: mustPlan(t, "SELECT AVG(nope) FROM Sessions", plan.Options{}),
			Cfg: Config{Workers: 2, Seed: 2}},
		{Plan: mustPlan(t, "SELECT AVG(Time) FROM Elsewhere", plan.Options{}),
			Cfg: Config{Workers: 2, Seed: 3}},
		{Plan: mustPlan(t, "SELECT nope, AVG(Time) FROM Sessions GROUP BY nope", plan.Options{}),
			Cfg: Config{Workers: 2, Seed: 4}},
		{Plan: mustPlan(t, "SELECT City, AVG(Time) FROM Sessions GROUP BY City", plan.Options{}),
			Cfg: Config{Workers: 2, Seed: 5}},
	}
	results, errs := RunShared(context.Background(), items, tables, nil)
	if errs[0] != nil || results[0] == nil {
		t.Fatalf("healthy batchmate failed: %v", errs[0])
	}
	if errs[1] == nil {
		t.Error("bad column did not error")
	}
	if errs[2] == nil {
		t.Error("unknown table did not error")
	}
	want := `exec: grouping on table "Sessions": exec: unknown GROUP BY column "nope"`
	if errs[3] == nil || errs[3].Error() != want {
		t.Errorf("bad GROUP BY column: %v, want %s", errs[3], want)
	}
	if errs[4] != nil || len(results[4].Groups) == 0 {
		t.Errorf("grouped batchmate of a bad GROUP BY failed: %v", errs[4])
	}
	if results[0].Counters.Scans != 1 {
		t.Errorf("survivor counters: %+v", results[0].Counters)
	}
}

func TestRunSharedWorkerCountInvariance(t *testing.T) {
	tables := storedSessions(10000, 34)
	tables["Sessions"].Data.BuildZones()
	opt := plan.Options{BootstrapK: 25}
	qs := []string{
		"SELECT AVG(Time) FROM Sessions WHERE Time > 70",
		"SELECT City, COUNT(*) FROM Sessions GROUP BY City",
	}
	var ref []*Result
	for _, workers := range []int{1, 2, 8} {
		items := make([]SharedItem, len(qs))
		for i, q := range qs {
			items[i] = SharedItem{Plan: mustPlan(t, q, opt),
				Cfg: Config{Workers: workers, Seed: uint64(50 + i)}}
		}
		results, errs := RunShared(context.Background(), items, tables, nil)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, err)
			}
		}
		if ref == nil {
			ref = results
			continue
		}
		for i := range qs {
			resultsEqual(t, qs[i], results[i], ref[i])
		}
	}
}
