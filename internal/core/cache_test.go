package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/rng"
	"repro/internal/table"
)

// cacheTestQueries exercises every decoded-block kind (float64 scans,
// string group keys and filters) plus grouped and filtered aggregates, so
// bit-identity over them covers the cache's full read surface.
var cacheTestQueries = []string{
	"SELECT AVG(Time) FROM Sessions",
	"SELECT COUNT(*), SUM(Time) FROM Sessions WHERE City = 'NYC'",
	"SELECT City, AVG(Time) FROM Sessions GROUP BY City",
	"SELECT PERCENTILE(Time, 0.9) FROM Sessions WHERE Time > 40",
}

// cacheAnswerBits flattens an answer's statistical content to raw bits:
// any cache-induced drift, however small, breaks equality.
func cacheAnswerBits(ans *Answer) []uint64 {
	var bits []uint64
	for _, g := range ans.Groups {
		for _, a := range g.Aggs {
			bits = append(bits,
				math.Float64bits(a.Estimate),
				math.Float64bits(a.ErrorBar.Lo()),
				math.Float64bits(a.ErrorBar.Hi()))
		}
	}
	return bits
}

func bitsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildCachedSessions builds a Sessions engine with samples; cacheBytes=0
// is the cache-off reference configuration.
func buildCachedSessions(t *testing.T, cfg Config, n, sampleRows int) *Engine {
	t.Helper()
	e, _ := buildSessions(t, cfg, n)
	if err := e.BuildSamples("Sessions", sampleRows); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCacheBitIdentityAcrossBackings pins the ISSUE's core acceptance
// criterion: with any budget, answers are bit-identical to cache-off
// across raw, compressed, and mmap-backed base tables, including repeat
// executions that are served from the block and answer caches.
func TestCacheBitIdentityAcrossBackings(t *testing.T) {
	const n, sampleRows = 30000, 4000
	backings := map[string]Config{
		"raw":        {Seed: 71},
		"compressed": {Seed: 71, Backing: table.BackingCompressed},
	}
	for name, base := range backings {
		base := base
		t.Run(name, func(t *testing.T) {
			base.SampleBacking = table.BackingCompressed
			off := buildCachedSessions(t, base, n, sampleRows)
			cfgOn := base
			cfgOn.CacheBytes = 8 << 20
			on := buildCachedSessions(t, cfgOn, n, sampleRows)

			for _, q := range cacheTestQueries {
				ref, err := off.Run(context.Background(), q)
				if err != nil {
					t.Fatalf("cache-off %q: %v", q, err)
				}
				for round := 0; round < 3; round++ {
					got, err := on.Run(context.Background(), q)
					if err != nil {
						t.Fatalf("cache-on %q round %d: %v", q, round, err)
					}
					if !bitsEqual(cacheAnswerBits(ref), cacheAnswerBits(got)) {
						t.Fatalf("%q round %d: cached answer diverged from cache-off", q, round)
					}
					if round > 0 && !got.Cached {
						t.Errorf("%q round %d: repeat not served from the answer cache", q, round)
					}
				}
			}

			st := on.CacheStatsSnapshot(0)
			if !st.Enabled {
				t.Fatal("cache-on engine reports caching disabled")
			}
			if st.Block.Hits+st.Answer.Hits == 0 {
				t.Error("repeat rounds produced no cache hits at all")
			}
		})
	}
}

// TestCacheBitIdentityMmapStore covers the third backing: a disk-backed
// (mmap) base table registered from table.OpenStore, with compressed
// samples on top, read warm and cold under a block budget.
func TestCacheBitIdentityMmapStore(t *testing.T) {
	const n, sampleRows = 20000, 3000
	build := func(cacheBytes int64) *Engine {
		t.Helper()
		eRaw, raw := buildSessions(t, Config{Seed: 72}, n)
		eRaw.Close()
		path := filepath.Join(t.TempDir(), "sessions.blk")
		if err := table.WriteStore(path, raw); err != nil {
			t.Fatal(err)
		}
		tbl, closer, err := table.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closer.Close() })
		e := New(Config{Seed: 72, SampleBacking: table.BackingCompressed, CacheBytes: cacheBytes})
		if err := e.RegisterTable("Sessions", tbl); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildSamples("Sessions", sampleRows); err != nil {
			t.Fatal(err)
		}
		return e
	}
	off := build(0)
	on := build(4 << 20)
	for _, q := range cacheTestQueries {
		ref, err := off.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("cache-off %q: %v", q, err)
		}
		for round := 0; round < 2; round++ {
			got, err := on.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("cache-on %q: %v", q, err)
			}
			if !bitsEqual(cacheAnswerBits(ref), cacheAnswerBits(got)) {
				t.Fatalf("%q round %d: mmap-backed cached answer diverged", q, round)
			}
		}
	}
}

// TestCacheDisabledByDefault pins CacheBytes=0 as a true off switch: no
// cache structures exist and the snapshot reports disabled.
func TestCacheDisabledByDefault(t *testing.T) {
	e := buildCachedSessions(t, Config{Seed: 73}, 10000, 2000)
	defer e.Close()
	if st := e.CacheStatsSnapshot(4); st.Enabled {
		t.Fatal("default engine reports caching enabled")
	}
	a1, err := e.Run(context.Background(), cacheTestQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Run(context.Background(), cacheTestQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cached || a2.Cached {
		t.Fatal("answers marked Cached with caching off")
	}
	if a1.Counters.CacheHits != 0 || a2.Counters.CacheBytes != 0 {
		t.Fatal("cache counters nonzero with caching off")
	}
}

// TestAnswerCacheReplayAndInvalidation pins the replay contract (Cached
// flag, zeroed counters, identical bits) and generation-based
// invalidation: any catalog change makes previously cached answers
// unreachable.
func TestAnswerCacheReplayAndInvalidation(t *testing.T) {
	e := buildCachedSessions(t, Config{Seed: 74, CacheBytes: 4 << 20,
		SampleBacking: table.BackingCompressed}, 20000, 3000)
	defer e.Close()
	q := "SELECT City, AVG(Time) FROM Sessions GROUP BY City"

	cold, err := e.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first execution marked Cached")
	}
	warm, err := e.Run(context.Background(), "  SELECT   City, AVG(Time) FROM Sessions GROUP BY City ")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("whitespace-variant repeat missed the answer cache (canonicalization)")
	}
	if !bitsEqual(cacheAnswerBits(cold), cacheAnswerBits(warm)) {
		t.Fatal("replayed answer differs from the original")
	}
	if warm.Counters.BlocksDecoded != 0 || warm.Counters.RowsScanned != 0 {
		t.Fatalf("replay reported fresh work: %+v", warm.Counters)
	}

	// Different BootstrapK budgets must not share entries.
	capped, err := e.RunWithOptions(context.Background(), q, RunOptions{BootstrapK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Cached {
		t.Fatal("k-capped run replayed a full-k answer")
	}

	gen := e.gen.Load()
	other := table.MustNew(table.Schema{{Name: "x", Type: table.Float64}},
		table.Float64Col{1, 2, 3})
	if err := e.RegisterTable("Other", other); err != nil {
		t.Fatal(err)
	}
	if e.gen.Load() == gen {
		t.Fatal("RegisterTable did not bump the catalog generation")
	}
	after, err := e.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("stale answer served across a catalog change")
	}
	if !bitsEqual(cacheAnswerBits(cold), cacheAnswerBits(after)) {
		t.Fatal("re-executed answer diverged after catalog change")
	}

	// Sample rebuilds invalidate too.
	gen = e.gen.Load()
	if err := e.BuildSamples("Sessions", 3000); err != nil {
		t.Fatal(err)
	}
	if e.gen.Load() == gen {
		t.Fatal("BuildSamples did not bump the catalog generation")
	}
	if ans, err := e.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	} else if ans.Cached {
		t.Fatal("stale answer served across a sample rebuild")
	}
}

// TestAnswerCacheTTLExpiry pins that an expired answer re-executes rather
// than replays.
func TestAnswerCacheTTLExpiry(t *testing.T) {
	e := buildCachedSessions(t, Config{Seed: 75, CacheBytes: 4 << 20,
		CacheTTL: 30 * time.Millisecond}, 10000, 2000)
	defer e.Close()
	q := cacheTestQueries[0]
	if _, err := e.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if ans, err := e.Run(context.Background(), q); err != nil || !ans.Cached {
		t.Fatalf("fresh repeat not replayed: %v, cached=%v", err, ans != nil && ans.Cached)
	}
	time.Sleep(60 * time.Millisecond)
	if ans, err := e.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	} else if ans.Cached {
		t.Fatal("expired answer replayed past its TTL")
	}
}

// TestCacheChurnRace is the -race stress: concurrent queries fill and evict
// a deliberately tight block budget while catalog changes (RegisterTable)
// invalidate the answer layer mid-flight. Every answer must stay
// bit-identical to the cache-off reference, and the block layer must never
// exceed its budget by more than one block. Sessions' sample is raw floats
// and dictionary strings, which the block cache turns away, so the workers
// also query Counts, whose integral column is int-coded and admitted.
func TestCacheChurnRace(t *testing.T) {
	const n, sampleRows = 30000, 6000
	workers, rounds := 6, 8
	if testing.Short() {
		workers, rounds = 4, 3
	}
	build := func(cfg Config) *Engine {
		e := buildCachedSessions(t, cfg, n, sampleRows)
		src := rng.New(761)
		clicks := make(table.Float64Col, n)
		for i := range clicks {
			clicks[i] = float64(src.Intn(1000))
		}
		if err := e.RegisterTable("Counts", table.MustNew(
			table.Schema{{Name: "Clicks", Type: table.Float64}}, clicks)); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildSamples("Counts", sampleRows); err != nil {
			t.Fatal(err)
		}
		return e
	}
	queries := append([]string{
		"SELECT AVG(Clicks) FROM Counts",
		"SELECT SUM(Clicks), COUNT(*) FROM Counts WHERE Clicks < 500",
	}, cacheTestQueries...)
	base := Config{Seed: 76, SampleBacking: table.BackingCompressed, Workers: 2}
	off := build(base)
	defer off.Close()
	refs := make(map[string][]uint64, len(queries))
	for _, q := range queries {
		ans, err := off.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		refs[q] = cacheAnswerBits(ans)
	}

	cfg := base
	// A budget of a few blocks forces constant eviction under load.
	budget := int64(3 * (table.BlockRows*8 + 96))
	cfg.CacheBytes = budget
	on := build(cfg)
	defer on.Close()

	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(queries)+rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for qi, q := range queries {
					ans, err := on.Run(context.Background(), q)
					if err != nil {
						errs <- fmt.Errorf("worker %d round %d %q: %w", w, r, q, err)
						return
					}
					if !bitsEqual(refs[q], cacheAnswerBits(ans)) {
						errs <- fmt.Errorf("worker %d round %d query %d diverged under churn", w, r, qi)
						return
					}
				}
			}
		}(w)
	}
	// Catalog churn: new registrations bump the generation while queries
	// are in flight, exercising invalidation under contention.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			tbl := table.MustNew(table.Schema{{Name: "x", Type: table.Float64}},
				table.Float64Col{float64(r)})
			if err := on.RegisterTable(fmt.Sprintf("churn%d", r), tbl); err != nil {
				errs <- fmt.Errorf("churn register %d: %w", r, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := on.CacheStatsSnapshot(0)
	// Eviction happens before insert, so residency can exceed the budget
	// by at most one block (allow a generous single-block bound, the size
	// of a string block, whose payload size is data-dependent).
	maxBlock := int64(table.BlockRows*24 + 96)
	if st.Block.Bytes > budget+maxBlock {
		t.Errorf("resident %d exceeds budget %d by more than one block", st.Block.Bytes, budget)
	}
	if st.Block.Evictions == 0 {
		t.Error("tight budget under churn evicted nothing")
	}
}

// TestExecPoolNoLeak: every release path — exact scans, approximate runs,
// cache-hit replays, failed parses and cancelled queries — must return its
// pooled buffers: block scratch, and the sample scan's selections and group
// ids.
func TestExecPoolNoLeak(t *testing.T) {
	settle := func(base int64) bool {
		for i := 0; i < 100; i++ {
			if exec.PoolOutstanding() == base {
				return true
			}
			time.Sleep(2 * time.Millisecond)
		}
		return false
	}
	base := exec.PoolOutstanding()

	for _, cacheBytes := range []int64{0, 4 << 20} {
		e := buildCachedSessions(t, Config{Seed: 77, CacheBytes: cacheBytes,
			SampleBacking: table.BackingCompressed}, 20000, 3000)
		for round := 0; round < 2; round++ { // round 2 replays from the answer cache
			for _, q := range cacheTestQueries {
				if _, err := e.Run(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := e.RunExact(context.Background(), "SELECT AVG(Time) FROM Sessions"); err != nil {
			t.Fatal(err)
		}
		// The streamed exact operator: grouped with a vector sink, an
		// evaluation error, and a cancelled scan.
		if _, err := e.RunExact(context.Background(), "SELECT City, MIN(Time), PERCENTILE(Time, 0.5) FROM Sessions WHERE City != 'SF' GROUP BY City"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunExact(context.Background(), "SELECT AVG(Time + City) FROM Sessions WHERE Time > 0"); err == nil {
			t.Fatal("string arithmetic accepted")
		}
		if _, err := e.Run(context.Background(), "SELECT AVG(nope) FROM Sessions"); err == nil {
			t.Fatal("bad query accepted")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		// A fresh query string: already-cached answers replay instantly and
		// would not exercise the cancellation release path.
		if _, err := e.Run(ctx, "SELECT SUM(Time) FROM Sessions WHERE City = 'SF'"); err == nil {
			t.Fatal("cancelled query succeeded")
		}
		if _, err := e.RunExact(ctx, "SELECT City, SUM(Time) FROM Sessions WHERE City != 'SF' GROUP BY City"); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled exact query returned %v", err)
		}
		e.Close()
		if !settle(base) {
			t.Fatalf("cacheBytes=%d: %d pooled buffers outstanding after all paths",
				cacheBytes, exec.PoolOutstanding()-base)
		}
	}
}

// TestExactScansLeaveBlockCacheToSample pins what the block cache holds: the
// sample, which every approximate query re-reads, and nothing of the base
// table, which only exact plans read and which they stream past the cache.
// With a budget of twice the decoded sample, diagnostic fallbacks and
// RunExact calls over a table several times that size evict nothing, leave
// the sample's residency as it was, never list the base table on
// /debug/cache, and answer with the cache-off engine's bits and decode counts.
// Shard and City take two values each, so a group of the sample holds ~4,000
// rows, over the diagnostic's floor of 3,200: the grouped queries run on the
// sample and fall back, rather than being planned exact before it.
func TestExactScansLeaveBlockCacheToSample(t *testing.T) {
	const n, sampleRows = 60000, 8000
	build := func(cacheBytes int64) *Engine {
		src := rng.New(431)
		time, heavy := make(table.Float64Col, n), make(table.Float64Col, n)
		shard, city := make(table.Int64Col, n), make(table.StringCol, n)
		names := []string{"NYC", "LA"}
		for i := 0; i < n; i++ {
			time[i] = 60 + 20*src.NormFloat64()
			heavy[i] = src.Pareto(1, 1.05)
			shard[i] = 1<<40 + int64(src.Intn(2))
			city[i] = names[src.Intn(len(names))]
		}
		e := New(Config{Seed: 79, Backing: table.BackingCompressed,
			SampleBacking: table.BackingCompressed, CacheBytes: cacheBytes})
		t.Cleanup(func() { e.Close() })
		if err := e.RegisterTable("T", table.MustNew(table.Schema{
			{Name: "Time", Type: table.Float64}, {Name: "Heavy", Type: table.Float64},
			{Name: "Shard", Type: table.Int64}, {Name: "City", Type: table.String},
		}, time, heavy, shard, city)); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildSamples("T", sampleRows); err != nil {
			t.Fatal(err)
		}
		return e
	}
	off := build(0)
	on := build(2 * off.tables["T"].samples[0].Data.SizeBytes())

	// Two approximate runs over every column bring the whole sample in.
	for _, lit := range []string{"0", "1"} {
		if _, err := on.Run(context.Background(), "SELECT AVG(Time), AVG(Heavy) FROM T WHERE Shard > "+lit+" AND City != 'zz'"); err != nil {
			t.Fatal(err)
		}
	}
	sampleResidency := func(st CacheStats) int64 {
		t.Helper()
		if len(st.Tables) != 1 || st.Tables[0].Name != fmt.Sprintf("T/sample[%d]", sampleRows) {
			t.Fatalf("/debug/cache lists %+v, want the sample alone", st.Tables)
		}
		return st.Tables[0].ResidentBytes
	}
	warm := on.CacheStatsSnapshot(16)
	warmSample := sampleResidency(warm)
	if warm.Block.Evictions != 0 || warmSample == 0 {
		t.Fatalf("warm-up: %+v", warm.Block)
	}

	for _, q := range []string{
		"SELECT MAX(Heavy) FROM T WHERE Heavy > 0",
		"SELECT Shard, AVG(Time), MAX(Heavy) FROM T GROUP BY Shard",
		"SELECT City, SUM(Time), PERCENTILE(Heavy, 0.5) FROM T WHERE Time > 50 GROUP BY City",
	} {
		ref, err := off.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := on.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		fellBack := false
		for _, g := range got.Groups {
			for _, a := range g.Aggs {
				fellBack = fellBack || (a.Exact && !a.DiagnosticOK)
			}
		}
		if !fellBack {
			t.Fatalf("%q: no aggregate fell back to exact execution", q)
		}
		if !bitsEqual(cacheAnswerBits(ref), cacheAnswerBits(got)) {
			t.Errorf("%q: fallback answer diverged from cache-off", q)
		}
	}
	for _, q := range []string{
		"SELECT AVG(Time), PERCENTILE(Heavy, 0.9) FROM T WHERE City = 'LA'",
		"SELECT Shard, COUNT(*), MIN(Time) FROM T WHERE Shard > 5 GROUP BY Shard",
		"SELECT City, AVG(Heavy), SUM(Shard) FROM T GROUP BY City",
	} {
		ref, err := off.RunExact(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := on.RunExact(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(cacheAnswerBits(ref), cacheAnswerBits(got)) {
				t.Errorf("%q: exact answer diverged from cache-off", q)
			}
			c := got.Counters
			if c.CacheHits != 0 || c.CacheBytes != 0 || c.BlocksDecoded != ref.Counters.BlocksDecoded {
				t.Errorf("%q round %d: %d cache hits (%d B), %d blocks decoded; want none and the cache-off %d",
					q, round, c.CacheHits, c.CacheBytes, c.BlocksDecoded, ref.Counters.BlocksDecoded)
			}
		}
	}

	after := on.CacheStatsSnapshot(16)
	if after.Block.Evictions != 0 {
		t.Errorf("%d evictions: exact scans pushed table blocks through the cache", after.Block.Evictions)
	}
	if after.Block.Bytes != warm.Block.Bytes || sampleResidency(after) != warmSample {
		t.Errorf("residency moved: %d B (sample %d) -> %d B (sample %d)",
			warm.Block.Bytes, warmSample, after.Block.Bytes, sampleResidency(after))
	}
}

// TestLiteralChurnStaysProbationary: a client that sends a fresh literal
// with every query — 2,000 of them, each run once, beside one repeated
// panel — leaves at most answerCap/8 = 128 answers resident beyond what the
// panel had made resident, and the panel still replays.
func TestLiteralChurnStaysProbationary(t *testing.T) {
	const probationAnswers = 128
	e := buildCachedSessions(t, Config{Seed: 78, CacheBytes: 4 << 20,
		SampleBacking: table.BackingCompressed, Workers: 1}, 10000, 2000)
	defer e.Close()
	run := func(q string) *Answer {
		t.Helper()
		ans, err := e.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return ans
	}
	const panel = "SELECT City, AVG(Time) FROM Sessions WHERE Time > 50 GROUP BY City"
	run(panel)
	if !run(panel).Cached {
		t.Fatal("the panel's repeat was not replayed")
	}
	before := e.CacheStatsSnapshot(0)
	for i := 0; i < 2000; i++ {
		run(fmt.Sprintf("SELECT AVG(Time) FROM Sessions WHERE Time > %g", 30+0.01*float64(i)))
		if i%50 == 49 && !run(panel).Cached {
			t.Fatalf("the panel was not replayed after %d one-off queries", i+1)
		}
	}
	st := e.CacheStatsSnapshot(0)
	if st.Answer.Entries > probationAnswers+before.Answer.Entries {
		t.Errorf("%d answers resident after literal churn, want at most %d + the panel's %d",
			st.Answer.Entries, probationAnswers, before.Answer.Entries)
	}
	if !run(panel).Cached {
		t.Error("the panel was not replayed after the churn")
	}
}
