package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/table"
)

// cacheRound is one workload round against one engine configuration:
// latency plus the round's incremental cache behaviour.
type cacheRound struct {
	Round int     `json:"round"`
	Ms    float64 `json:"ms"`
	// HitRate is the fraction of cache lookups (block + answer) this round
	// that hit — the ramp from cold (≈0) to hot (≈1).
	HitRate float64 `json:"hit_rate"`
	// ResidentBytes is the block cache's footprint after the round.
	ResidentBytes int64 `json:"resident_bytes"`
	Evictions     int64 `json:"evictions"`
}

// cacheRepeat is the hot-working-set phase: every cache layer on, budget
// comfortably above the working set, the same queries repeated.
type cacheRepeat struct {
	BudgetBytes int64        `json:"budget_bytes"`
	Rounds      []cacheRound `json:"rounds"`
	// Speedup is baseline ms-per-round over the mean warm (round ≥ 2)
	// ms-per-round — the CI gate wants ≥ 2x.
	Speedup float64 `json:"speedup"`
	// HitRate is the warm-round hit rate — the CI gate wants ≥ 0.9.
	HitRate float64 `json:"hit_rate"`
	// Divergence counts float64 result words that differ from the
	// cache-off answers (must be 0: caching is bit-neutral).
	Divergence int `json:"divergence"`
}

// cacheEvict is the thrash phase: block cache only, budget at 10% of the
// working set, so every round churns through eviction.
type cacheEvict struct {
	BudgetBytes int64        `json:"budget_bytes"`
	Rounds      []cacheRound `json:"rounds"`
	// MaxResidentBytes is the largest observed footprint; it must stay
	// within one block of the budget.
	MaxResidentBytes int64 `json:"max_resident_bytes"`
	// SlowdownVsBaseline is warm ms-per-round over the cache-off baseline:
	// near 1.0 means degradation is graceful, not a cliff.
	SlowdownVsBaseline float64 `json:"slowdown_vs_baseline"`
	Divergence         int     `json:"divergence"`
}

// cacheSweepPoint is one budget fraction in the degradation sweep.
type cacheSweepPoint struct {
	BudgetFraction float64 `json:"budget_fraction"`
	BudgetBytes    int64   `json:"budget_bytes"`
	MsPerRound     float64 `json:"ms_per_round"`
	HitRate        float64 `json:"hit_rate"`
	Evictions      int64   `json:"evictions"`
}

// cacheBenchResult is the cache fixture; it serializes to
// BENCH_cache.json.
type cacheBenchResult struct {
	Rows            int     `json:"rows"`
	SampleRows      int     `json:"sample_rows"`
	QueriesPerRound int     `json:"queries_per_round"`
	WorkingSetBytes int64   `json:"working_set_bytes"`
	BaselineMs      float64 `json:"baseline_ms_per_round"`

	Repeat cacheRepeat       `json:"repeat"`
	Evict  cacheEvict        `json:"evict"`
	Sweep  []cacheSweepPoint `json:"sweep"`
}

// JSONName routes this result's machine-readable output to its own file.
func (*cacheBenchResult) JSONName() string { return "BENCH_cache.json" }

// cacheQueries is the repeated hot workload: closed-form AVG/COUNT
// aggregates behind string predicates over two numeric columns, so every
// query decodes sample blocks (the samples are stored compressed) and
// repeats are pure cache traffic.
func cacheQueries() []string {
	names := []string{"NYC", "SF", "LA", "CHI", "LDN", "TYO"}
	var qs []string
	for _, c := range names {
		qs = append(qs,
			fmt.Sprintf("SELECT AVG(Time), COUNT(*) FROM T WHERE City = '%s'", c),
			fmt.Sprintf("SELECT AVG(bytes) FROM T WHERE City = '%s'", c))
	}
	return qs
}

// cacheEngine builds one engine over the shared base table with compressed
// samples and the given cache settings. Diagnostics are off for the same
// reason as the storage bench: a rejection's exact fallback would rescan
// the base table and measure a different experiment.
func cacheEngine(base *table.Table, sampleRows, seed int, cacheBytes int64, blockOnly bool) *core.Engine {
	eng := core.New(core.Config{
		Seed:               uint64(seed),
		Workers:            4,
		BootstrapK:         20,
		SkipDiagnostics:    true,
		SampleBacking:      table.BackingCompressed,
		CacheBytes:         cacheBytes,
		DisableAnswerCache: blockOnly,
		DisablePredMemo:    blockOnly,
	})
	if err := eng.RegisterTable("T", base); err != nil {
		panic("aqpbench: " + err.Error())
	}
	if err := eng.BuildSamples("T", sampleRows); err != nil {
		panic("aqpbench: " + err.Error())
	}
	return eng
}

// answerBits flattens an answer's statistical outputs to their exact
// float64 bit patterns: estimate, CI lo, CI hi per aggregate.
func answerBits(a *core.Answer) []uint64 {
	var bits []uint64
	for _, g := range a.Groups {
		for _, agg := range g.Aggs {
			bits = append(bits,
				math.Float64bits(agg.Estimate),
				math.Float64bits(agg.ErrorBar.Lo()),
				math.Float64bits(agg.ErrorBar.Hi()))
		}
	}
	return bits
}

// diverged counts bit-level mismatches between an answer and its
// cache-off reference.
func diverged(ref, got []uint64) int {
	n := 0
	if len(ref) != len(got) {
		return len(ref) + len(got)
	}
	for i := range ref {
		if ref[i] != got[i] {
			n++
		}
	}
	return n
}

// runCacheRounds drives the workload `rounds` times against one engine,
// recording per-round latency, the incremental hit-rate ramp, and
// divergence against the reference answers (nil skips the check).
func runCacheRounds(eng *core.Engine, qs []string, rounds int, refs [][]uint64) ([]cacheRound, int64, int) {
	var out []cacheRound
	var lastHits, lastLookups int64
	var maxResident int64
	divergence := 0
	for r := 1; r <= rounds; r++ {
		start := time.Now()
		for qi, q := range qs {
			ans, err := eng.Run(context.Background(), q)
			if err != nil {
				panic("aqpbench: " + err.Error())
			}
			if refs != nil {
				divergence += diverged(refs[qi], answerBits(ans))
			}
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		st := eng.CacheStatsSnapshot(0)
		hits := st.Block.Hits + st.Answer.Hits
		lookups := hits + st.Block.Misses + st.Answer.Misses
		rate := 0.0
		if d := lookups - lastLookups; d > 0 {
			rate = float64(hits-lastHits) / float64(d)
		}
		lastHits, lastLookups = hits, lookups
		if st.Block.Bytes > maxResident {
			maxResident = st.Block.Bytes
		}
		out = append(out, cacheRound{
			Round:         r,
			Ms:            ms,
			HitRate:       rate,
			ResidentBytes: st.Block.Bytes,
			Evictions:     st.Block.Evictions,
		})
	}
	return out, maxResident, divergence
}

// warmMs averages the ms-per-round of rounds 2..n (round 1 is the cold
// fill on cached engines and the warmup on the baseline).
func warmMs(rounds []cacheRound) float64 {
	if len(rounds) < 2 {
		return rounds[len(rounds)-1].Ms
	}
	sum := 0.0
	for _, r := range rounds[1:] {
		sum += r.Ms
	}
	return sum / float64(len(rounds)-1)
}

// cacheBench measures the decoded-block/answer cache on a repeated hot
// workload over compressed samples: repeat-query speedup and hit-rate
// ramp with the budget above the working set, bit-exactness and graceful
// degradation with the budget far below it, and a budget-fraction sweep
// in between.
func cacheBench(rows, sampleRows, rounds, seed int) *cacheBenchResult {
	base := storageTable(rows, seed)
	qs := cacheQueries()
	res := &cacheBenchResult{
		Rows:            rows,
		SampleRows:      sampleRows,
		QueriesPerRound: len(qs),
	}
	// The decoded working set is bounded by the sample's logical size; a
	// same-shape table of sampleRows rows measures it without touching
	// engine internals.
	res.WorkingSetBytes = storageTable(sampleRows, seed).SizeBytes()

	// Cache-off baseline: reference answers (bit-identity ground truth)
	// and the ms-per-round every other configuration is judged against.
	offEng := cacheEngine(base, sampleRows, seed, 0, false)
	refs := make([][]uint64, len(qs))
	for qi, q := range qs {
		ans, err := offEng.Run(context.Background(), q)
		if err != nil {
			panic("aqpbench: " + err.Error())
		}
		refs[qi] = answerBits(ans)
	}
	offRounds, _, _ := runCacheRounds(offEng, qs, rounds, refs)
	res.BaselineMs = warmMs(offRounds)
	offEng.Close()

	// Repeat phase: all layers, budget 4x the working set. Warm rounds are
	// answer-cache replays, so the speedup gate is decisive.
	res.Repeat.BudgetBytes = 4 * res.WorkingSetBytes
	repEng := cacheEngine(base, sampleRows, seed, res.Repeat.BudgetBytes, false)
	var maxRes int64
	res.Repeat.Rounds, maxRes, res.Repeat.Divergence =
		runCacheRounds(repEng, qs, rounds, refs)
	_ = maxRes
	warm := warmMs(res.Repeat.Rounds)
	if warm > 0 {
		res.Repeat.Speedup = res.BaselineMs / warm
	}
	hitSum := 0.0
	for _, r := range res.Repeat.Rounds[1:] {
		hitSum += r.HitRate
	}
	if len(res.Repeat.Rounds) > 1 {
		res.Repeat.HitRate = hitSum / float64(len(res.Repeat.Rounds)-1)
	}
	repEng.Close()

	// Evict phase: block cache only (no answer short-circuit), budget at
	// 10% of the working set — constant eviction churn, answers must stay
	// bit-identical and latency must not fall off a cliff.
	res.Evict.BudgetBytes = res.WorkingSetBytes / 10
	evEng := cacheEngine(base, sampleRows, seed, res.Evict.BudgetBytes, true)
	res.Evict.Rounds, res.Evict.MaxResidentBytes, res.Evict.Divergence =
		runCacheRounds(evEng, qs, rounds, refs)
	if res.BaselineMs > 0 {
		res.Evict.SlowdownVsBaseline = warmMs(res.Evict.Rounds) / res.BaselineMs
	}
	evEng.Close()

	// Budget sweep: block cache only, fraction of the working set rising
	// from starved to comfortable — hit rate should rise and latency fall
	// smoothly across the boundary.
	for _, f := range []float64{0.1, 0.25, 0.5, 1.0, 2.0} {
		budget := int64(f * float64(res.WorkingSetBytes))
		eng := cacheEngine(base, sampleRows, seed, budget, true)
		rds, _, _ := runCacheRounds(eng, qs, rounds, refs)
		last := rds[len(rds)-1]
		res.Sweep = append(res.Sweep, cacheSweepPoint{
			BudgetFraction: f,
			BudgetBytes:    budget,
			MsPerRound:     warmMs(rds),
			HitRate:        last.HitRate,
			Evictions:      last.Evictions,
		})
		eng.Close()
	}
	return res
}

// Render implements result.
func (r *cacheBenchResult) Render(w io.Writer) {
	fmt.Fprintf(w, "cache bench (rows=%d, sample=%d, %d queries/round, working set %.1f MiB)\n",
		r.Rows, r.SampleRows, r.QueriesPerRound, float64(r.WorkingSetBytes)/(1<<20))
	fmt.Fprintf(w, "  baseline (cache off): %.3f ms/round\n", r.BaselineMs)
	fmt.Fprintf(w, "repeat workload, budget %.1f MiB (all layers)\n",
		float64(r.Repeat.BudgetBytes)/(1<<20))
	fmt.Fprintf(w, "  %-7s %10s %9s %14s %10s\n", "round", "ms", "hit rate", "resident", "evicted")
	for _, rd := range r.Repeat.Rounds {
		fmt.Fprintf(w, "  %-7d %10.3f %9.3f %14d %10d\n",
			rd.Round, rd.Ms, rd.HitRate, rd.ResidentBytes, rd.Evictions)
	}
	fmt.Fprintf(w, "  speedup %.2fx, warm hit rate %.3f, divergence %d\n",
		r.Repeat.Speedup, r.Repeat.HitRate, r.Repeat.Divergence)
	fmt.Fprintf(w, "eviction churn, budget %.2f MiB (block cache only, 10%% of working set)\n",
		float64(r.Evict.BudgetBytes)/(1<<20))
	fmt.Fprintf(w, "  max resident %d bytes (budget %d), slowdown vs baseline %.2fx, divergence %d\n",
		r.Evict.MaxResidentBytes, r.Evict.BudgetBytes,
		r.Evict.SlowdownVsBaseline, r.Evict.Divergence)
	fmt.Fprintln(w, "budget sweep (block cache only)")
	fmt.Fprintf(w, "  %-9s %14s %12s %9s %10s\n", "fraction", "budget", "ms/round", "hit rate", "evicted")
	for _, p := range r.Sweep {
		fmt.Fprintf(w, "  %-9.2f %14d %12.3f %9.3f %10d\n",
			p.BudgetFraction, p.BudgetBytes, p.MsPerRound, p.HitRate, p.Evictions)
	}
}

// WriteCSV implements result.
func (r *cacheBenchResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "phase,round,ms,hit_rate,resident_bytes,evictions"); err != nil {
		return err
	}
	for _, rd := range r.Repeat.Rounds {
		if _, err := fmt.Fprintf(w, "repeat,%d,%.3f,%.4f,%d,%d\n",
			rd.Round, rd.Ms, rd.HitRate, rd.ResidentBytes, rd.Evictions); err != nil {
			return err
		}
	}
	for _, rd := range r.Evict.Rounds {
		if _, err := fmt.Fprintf(w, "evict,%d,%.3f,%.4f,%d,%d\n",
			rd.Round, rd.Ms, rd.HitRate, rd.ResidentBytes, rd.Evictions); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "budget_fraction,budget_bytes,ms_per_round,hit_rate,evictions"); err != nil {
		return err
	}
	for _, p := range r.Sweep {
		if _, err := fmt.Fprintf(w, "%.2f,%d,%.3f,%.4f,%d\n",
			p.BudgetFraction, p.BudgetBytes, p.MsPerRound, p.HitRate, p.Evictions); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the machine-readable form consumed by CI and tooling.
func (r *cacheBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
