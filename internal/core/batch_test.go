package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// answersEqual asserts two Answers agree on everything a client reads:
// group keys and every per-aggregate field (estimate, error bar, technique,
// diagnostic verdict and evidence, exactness). Counters are compared by the caller where
// meaningful — a shared-scan member carries only its share of the pass.
func answersEqual(t *testing.T, label string, got, want *Answer) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil answer (got=%v want=%v)", label, got == nil, want == nil)
	}
	if got.SampleRows != want.SampleRows {
		t.Errorf("%s: sample rows %d != %d", label, got.SampleRows, want.SampleRows)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want.Groups))
	}
	for gi := range want.Groups {
		g, w := got.Groups[gi], want.Groups[gi]
		if g.Key != w.Key {
			t.Fatalf("%s: group %d key %q != %q", label, gi, g.Key, w.Key)
		}
		if len(g.Aggs) != len(w.Aggs) {
			t.Fatalf("%s: group %q: %d aggs, want %d", label, g.Key, len(g.Aggs), len(w.Aggs))
		}
		for ai := range w.Aggs {
			if !reflect.DeepEqual(g.Aggs[ai], w.Aggs[ai]) {
				t.Errorf("%s: group %q agg %d:\n  got  %+v\n  want %+v",
					label, g.Key, ai, g.Aggs[ai], w.Aggs[ai])
			}
		}
	}
}

func sampledSessions(t *testing.T, cfg Config, n, sample int) *Engine {
	t.Helper()
	e, _ := buildSessions(t, cfg, n)
	if err := e.BuildSamples("Sessions", sample); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBatchKey(t *testing.T) {
	e := sampledSessions(t, Config{Seed: 41, BootstrapK: 20}, 40000, 10000)
	k1, ok := e.BatchKey("SELECT AVG(Time) FROM Sessions")
	if !ok || k1 == "" {
		t.Fatal("sampled query not batchable")
	}
	k2, ok := e.BatchKey("SELECT COUNT(*) FROM Sessions WHERE City = 'NYC'")
	if !ok || k2 != k1 {
		t.Errorf("same (table, sample) keys differ: %q vs %q", k1, k2)
	}
	if _, ok := e.BatchKey("SELECT AVG(Time) FROM"); ok {
		t.Error("malformed query batchable")
	}
	if _, ok := e.BatchKey("SELECT AVG(Time) FROM Nowhere"); ok {
		t.Error("unknown table batchable")
	}
	// No samples: the exact path is never batched.
	exact, _ := buildSessions(t, Config{Seed: 42}, 5000)
	if _, ok := exact.BatchKey("SELECT AVG(Time) FROM Sessions"); ok {
		t.Error("sampleless engine reports batchable")
	}
}

func TestRunSharedBatchMatchesSolo(t *testing.T) {
	mk := func() *Engine {
		return sampledSessions(t, Config{Seed: 43, BootstrapK: 30}, 60000, 20000)
	}
	queries := []string{
		"SELECT AVG(Time) FROM Sessions",
		"SELECT COUNT(*), SUM(Time) FROM Sessions WHERE City = 'NYC'",
		"SELECT City, AVG(Time) FROM Sessions GROUP BY City",
		"SELECT PERCENTILE(Time, 0.5) FROM Sessions WHERE Time > 40",
		"SELECT AVG(Time) FROM Sessions", // identical plan: dedup path
	}

	// Solo reference answers on a fresh engine (same seed => bit-identical
	// randomness per query).
	soloEng := mk()
	solo := make([]*Answer, len(queries))
	for i, q := range queries {
		ans, err := soloEng.RunWithOptions(context.Background(), q, RunOptions{})
		if err != nil {
			t.Fatalf("solo %q: %v", q, err)
		}
		solo[i] = ans
	}

	reqs := make([]BatchRequest, len(queries))
	for i, q := range queries {
		reqs[i] = BatchRequest{Query: q}
	}
	out := mk().RunSharedBatch(reqs)
	for i, q := range queries {
		if out[i].Err != nil {
			t.Fatalf("batched %q: %v", q, out[i].Err)
		}
		answersEqual(t, q, out[i].Ans, solo[i])
		if !out[i].Ans.SharedScan {
			t.Errorf("%q: answer not marked SharedScan", q)
		}
	}
}

// TestRunSharedBatchKeepsAliases: batchmates that differ only in their AS
// aliases share one scan but not one plan — each answer carries its own
// column names, exactly as solo, and the answer cache replays each under
// its own SQL. The repeated member takes the shared pass's follower path.
func TestRunSharedBatchKeepsAliases(t *testing.T) {
	mk := func() *Engine {
		return sampledSessions(t, Config{Seed: 43, BootstrapK: 30, CacheBytes: 4 << 20}, 60000, 20000)
	}
	queries := []string{
		"SELECT AVG(Time) AS a FROM Sessions",
		"SELECT AVG(Time) AS b FROM Sessions",
		"SELECT AVG(Time) AS a FROM Sessions",
		"SELECT AVG(Time) AS a, COUNT(*) AS n FROM Sessions",
		"SELECT AVG(Time) AS b, COUNT(*) AS m FROM Sessions",
	}
	soloEng := mk()
	solo := make([]*Answer, len(queries))
	for i, q := range queries {
		ans, err := soloEng.RunWithOptions(context.Background(), q, RunOptions{})
		if err != nil {
			t.Fatalf("solo %q: %v", q, err)
		}
		solo[i] = ans
	}
	reqs := make([]BatchRequest, len(queries))
	for i, q := range queries {
		reqs[i] = BatchRequest{Query: q}
	}
	e := mk()
	out := e.RunSharedBatch(reqs)
	for i, q := range queries {
		if out[i].Err != nil {
			t.Fatalf("batched %q: %v", q, out[i].Err)
		}
		answersEqual(t, q, out[i].Ans, solo[i])
		if out[i].Ans.SQL != q {
			t.Errorf("batched %q answers for %q", q, out[i].Ans.SQL)
		}
	}
	for i, q := range queries {
		replay, err := e.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !replay.Cached {
			t.Fatalf("%q missed the answer cache", q)
		}
		answersEqual(t, q+" (replayed)", replay, solo[i])
	}
}

// TestRunSharedBatchScansOnce pins the tentpole acceptance criterion: a
// batch of 16 same-sample queries performs exactly ONE physical pass —
// summing Counters.Scans across all 16 answers gives 1.
func TestRunSharedBatchScansOnce(t *testing.T) {
	// Diagnostics off: a marginal rejection would trigger an exact-fallback
	// rescan and muddy the count this test exists to pin.
	e := sampledSessions(t, Config{Seed: 44, BootstrapK: 25, skipDiagnostics: true},
		60000, 20000)
	reqs := make([]BatchRequest, 16)
	for i := range reqs {
		reqs[i] = BatchRequest{
			Query: fmt.Sprintf("SELECT AVG(Time), COUNT(*) FROM Sessions WHERE Time > %d", 30+i),
		}
	}
	out := e.RunSharedBatch(reqs)
	var scans int64
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("member %d: %v", i, r.Err)
		}
		if r.Ans.FellBack() {
			t.Fatalf("member %d fell back to exact execution; the scan count below would be meaningless", i)
		}
		scans += int64(r.Ans.Counters.Scans)
	}
	if scans != 1 {
		t.Errorf("batch of 16 summed Counters.Scans = %d, want 1", scans)
	}
}

func TestRunSharedBatchRejectedDiagnosticFallsBack(t *testing.T) {
	mk := func() *Engine {
		e := heavyTailTable(t, Config{Seed: 45, BootstrapK: 40}, 120000)
		if err := e.BuildSamples("T", 40000); err != nil {
			t.Fatal(err)
		}
		return e
	}
	queries := []string{
		"SELECT MAX(v) FROM T WHERE v > 0", // diagnostic rejects MAX on extreme Pareto data
		"SELECT AVG(v) FROM T",
	}
	soloEng := mk()
	solo := make([]*Answer, len(queries))
	for i, q := range queries {
		ans, err := soloEng.RunWithOptions(context.Background(), q, RunOptions{})
		if err != nil {
			t.Fatalf("solo %q: %v", q, err)
		}
		solo[i] = ans
	}
	if !solo[0].FellBack() {
		t.Fatal("MAX on Pareto data did not fall back solo; test premise broken")
	}

	reqs := []BatchRequest{{Query: queries[0]}, {Query: queries[1]}}
	out := mk().RunSharedBatch(reqs)
	for i, q := range queries {
		if out[i].Err != nil {
			t.Fatalf("batched %q: %v", q, out[i].Err)
		}
		answersEqual(t, q, out[i].Ans, solo[i])
	}
	if !out[0].Ans.FellBack() {
		t.Error("batched rejected member did not fall back")
	}
}

func TestRunSharedBatchExactMembersRunSolo(t *testing.T) {
	// An engine with no samples answers exactly; such members bypass the
	// shared pass but still get correct answers from the same call.
	e, tbl := buildSessions(t, Config{Seed: 46}, 20000)
	_ = tbl
	reqs := []BatchRequest{
		{Query: "SELECT AVG(Time) FROM Sessions"},
		{Query: "SELECT COUNT(*) FROM Sessions WHERE City = 'SF'"},
		{Query: "SELECT AVG(nope) FROM Sessions"}, // per-member error
	}
	out := e.RunSharedBatch(reqs)
	for i := 0; i < 2; i++ {
		if out[i].Err != nil {
			t.Fatalf("member %d: %v", i, out[i].Err)
		}
		want, err := e.Run(context.Background(), reqs[i].Query)
		if err != nil {
			t.Fatal(err)
		}
		answersEqual(t, reqs[i].Query, out[i].Ans, want)
		if !out[i].Ans.Groups[0].Aggs[0].Exact {
			t.Errorf("member %d not exact", i)
		}
		if out[i].Ans.SharedScan {
			t.Errorf("member %d marked SharedScan despite solo execution", i)
		}
	}
	if out[2].Err == nil {
		t.Error("bad column did not surface a per-member error")
	}
}

func TestRunSharedBatchHonoursMemberContext(t *testing.T) {
	e := sampledSessions(t, Config{Seed: 47, BootstrapK: 200}, 60000, 20000)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []BatchRequest{
		{Ctx: cancelled, Query: "SELECT AVG(Time) FROM Sessions"},
		{Query: "SELECT COUNT(*) FROM Sessions WHERE City = 'LA'"},
	}
	out := e.RunSharedBatch(reqs)
	if out[0].Err == nil {
		t.Error("cancelled member succeeded")
	}
	if out[1].Err != nil {
		t.Errorf("healthy batchmate failed: %v", out[1].Err)
	}
}
