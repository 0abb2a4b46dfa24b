package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/rng"
	"repro/internal/table"
)

// HistoryWritePoint is one fsync policy's measured append cost.
type HistoryWritePoint struct {
	// FsyncEvery is the durability knob (0 = OS-buffered, 1 = every
	// record, N = every Nth).
	FsyncEvery int `json:"fsync_every"`
	// Records is the number of appended records.
	Records int     `json:"records"`
	TotalMs float64 `json:"total_ms"`
	// MicrosPerRecord is the mean append latency.
	MicrosPerRecord float64 `json:"micros_per_record"`
	RecordsPerSec   float64 `json:"records_per_sec"`
}

// HistoryReplayPoint is one startup-replay measurement.
type HistoryReplayPoint struct {
	Records       int     `json:"records"`
	Segments      int     `json:"segments"`
	Ms            float64 `json:"ms"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// HistoryConvergencePoint tracks the profiler's selectivity-median
// estimate as queries accumulate.
type HistoryConvergencePoint struct {
	Queries int `json:"queries"`
	// SelP50 is the profile's GK-sketch median selectivity after Queries
	// folds; AbsErr is its distance from the generating distribution's
	// true median.
	SelP50 float64 `json:"sel_p50"`
	AbsErr float64 `json:"abs_err"`
}

// HistoryBenchResult quantifies the durable-telemetry tax and its payoff:
// the query-path overhead of writing history records, raw append
// throughput per fsync policy, replay time as the log grows, and how fast
// workload profiles converge on the workload's true shape.
type HistoryBenchResult struct {
	// EngineOverheadPct is the mean-latency overhead of the same query
	// workload with a history store attached vs. without (answers are
	// bit-identical either way).
	EngineOverheadPct float64              `json:"engine_overhead_pct"`
	EngineQueries     int                  `json:"engine_queries"`
	Writes            []HistoryWritePoint  `json:"writes"`
	Replay            []HistoryReplayPoint `json:"replay"`
	// TrueSelP50 is the generating distribution's median selectivity the
	// convergence sweep estimates.
	TrueSelP50  float64                   `json:"true_sel_p50"`
	Convergence []HistoryConvergencePoint `json:"convergence"`
}

// benchQueryRecord builds a representative query record (a few stages,
// two aggregates) so framing and fold costs match production records.
func benchQueryRecord(qid uint64, sel float64) history.QueryRecord {
	return history.QueryRecord{
		QID:            qid,
		SQL:            "SELECT AVG(X) FROM T WHERE X < ?",
		Table:          "T",
		Sample:         "10000",
		Predicate:      "(x < ?)",
		Outcome:        "ok",
		TotalMs:        3.5,
		StagesMs:       map[string]float64{"parse": 0.05, "plan": 0.1, "scan": 2.4, "estimate": 0.4},
		Selectivity:    sel,
		SampleFraction: 0.1,
		KBudget:        100,
		KUsed:          60,
		Aggs: []history.AggSample{
			{Kind: "AVG", RelErr: 0.01, Technique: "closed-form"},
			{Kind: "SUM", RelErr: 0.02, Technique: "bootstrap"},
		},
	}
}

// HistoryBench measures the persistent history store: engine write-path
// overhead, append throughput per fsync policy, replay scaling, and
// profile convergence.
func HistoryBench(cfg Config) *HistoryBenchResult {
	res := &HistoryBenchResult{}
	res.EngineOverheadPct, res.EngineQueries = historyEngineOverhead(cfg)
	res.Writes = historyWriteSweep(cfg)
	res.Replay = historyReplaySweep(cfg)
	res.TrueSelP50 = 0.25
	res.Convergence = historyConvergence(cfg)
	return res
}

// historyEngineOverhead serves the obs-overhead workload with and without
// a history store and compares mean latency.
func historyEngineOverhead(cfg Config) (pct float64, queries int) {
	src := cfg.stream("history-overhead-data", 0)
	n := cfg.PopulationSize
	xs := make(table.Float64Col, n)
	gs := make(table.StringCol, n)
	names := []string{"a", "b", "c", "d"}
	zipf := rng.NewZipf(src, len(names), 1.1)
	for i := 0; i < n; i++ {
		gs[i] = names[zipf.Next()]
		xs[i] = src.LogNormal(4, 0.6)
	}
	tbl := table.MustNew(table.Schema{
		{Name: "X", Type: table.Float64},
		{Name: "G", Type: table.String},
	}, xs, gs)

	reps := cfg.QueriesPerSet
	if reps < 16 {
		reps = 16
	}
	run := func(withHistory bool) (meanMs float64, count int) {
		ecfg := core.Config{
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
			BootstrapK: cfg.BootstrapK,
			Obs:        obs.NewTracer(obs.Config{}),
		}
		var hist *history.Store
		if withHistory {
			dir, err := os.MkdirTemp("", "aqphist-bench")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			hist, err = history.Open(dir, history.Options{SampleInterval: -1})
			if err != nil {
				panic(err)
			}
			ecfg.History = hist
		}
		e := core.New(ecfg)
		if err := e.RegisterTable("T", tbl); err != nil {
			panic(err)
		}
		sampleRows := cfg.SampleSize
		if sampleRows > n/2 {
			sampleRows = n / 2
		}
		if err := e.BuildSamples("T", sampleRows); err != nil {
			panic(err)
		}
		for _, q := range obsOverheadQueries {
			if _, err := e.Run(context.Background(), q); err != nil {
				panic(fmt.Sprintf("history overhead warmup: %v", err))
			}
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, q := range obsOverheadQueries {
				if _, err := e.Run(context.Background(), q); err != nil {
					panic(fmt.Sprintf("history overhead: %v", err))
				}
				count++
			}
		}
		total := time.Since(start)
		hist.Close()
		return float64(total) / float64(time.Millisecond) / float64(count), count
	}
	base, count := run(false)
	with, _ := run(true)
	if base > 0 {
		pct = (with - base) / base * 100
	}
	return pct, count
}

// historyWriteSweep measures raw append throughput per fsync policy.
func historyWriteSweep(cfg Config) []HistoryWritePoint {
	var out []HistoryWritePoint
	for _, p := range []struct{ fsyncEvery, records int }{
		{0, 20000}, {64, 20000}, {1, 500},
	} {
		dir, err := os.MkdirTemp("", "aqphist-write")
		if err != nil {
			panic(err)
		}
		s, err := history.Open(dir, history.Options{
			FsyncEvery:     p.fsyncEvery,
			SampleInterval: -1,
		})
		if err != nil {
			os.RemoveAll(dir)
			panic(err)
		}
		start := time.Now()
		for i := 0; i < p.records; i++ {
			s.AppendQuery(benchQueryRecord(uint64(i), 0.25))
		}
		total := time.Since(start)
		s.Close()
		os.RemoveAll(dir)
		ms := float64(total) / float64(time.Millisecond)
		out = append(out, HistoryWritePoint{
			FsyncEvery:      p.fsyncEvery,
			Records:         p.records,
			TotalMs:         ms,
			MicrosPerRecord: ms * 1000 / float64(p.records),
			RecordsPerSec:   float64(p.records) / total.Seconds(),
		})
	}
	return out
}

// historyReplaySweep writes logs of growing record counts and times the
// offline replay that startup recovery performs.
func historyReplaySweep(cfg Config) []HistoryReplayPoint {
	var out []HistoryReplayPoint
	for _, records := range []int{2000, 8000, 32000} {
		dir, err := os.MkdirTemp("", "aqphist-replay")
		if err != nil {
			panic(err)
		}
		s, err := history.Open(dir, history.Options{SampleInterval: -1})
		if err != nil {
			os.RemoveAll(dir)
			panic(err)
		}
		for i := 0; i < records; i++ {
			s.AppendQuery(benchQueryRecord(uint64(i), 0.25))
		}
		s.Close()
		start := time.Now()
		_, segs, err := history.Replay(dir)
		total := time.Since(start)
		os.RemoveAll(dir)
		if err != nil {
			panic(err)
		}
		out = append(out, HistoryReplayPoint{
			Records:       records,
			Segments:      len(segs),
			Ms:            float64(total) / float64(time.Millisecond),
			RecordsPerSec: float64(records) / total.Seconds(),
		})
	}
	return out
}

// historyConvergence folds queries whose selectivity is drawn from a
// known distribution (U^2 on [0,1]; true median 0.25) and tracks the
// profile's GK-sketch median at checkpoint counts.
func historyConvergence(cfg Config) []HistoryConvergencePoint {
	src := cfg.stream("history-convergence", 0)
	dir, err := os.MkdirTemp("", "aqphist-conv")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	s, err := history.Open(dir, history.Options{SampleInterval: -1})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	key := history.Key{Table: "T", Sample: "10000", Agg: "AVG", Predicate: "(x < ?)"}
	checkpoints := []int{16, 64, 256, 1024, 4096}
	var out []HistoryConvergencePoint
	n := 0
	for _, cp := range checkpoints {
		for n < cp {
			u := src.Float64()
			s.AppendQuery(benchQueryRecord(uint64(n), u*u))
			n++
		}
		prof, ok := s.Profile(key)
		if !ok {
			panic("history convergence: profile key missing")
		}
		out = append(out, HistoryConvergencePoint{
			Queries: n,
			SelP50:  prof.Selectivity.P50,
			AbsErr:  math.Abs(prof.Selectivity.P50 - 0.25),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Queries < out[j].Queries })
	return out
}

// Render implements the aqpbench result interface.
func (r *HistoryBenchResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Durable telemetry: history store cost and profile convergence")
	fmt.Fprintln(w, "=============================================================")
	fmt.Fprintf(w, "engine write-path overhead: %+.2f%% over %d queries (history on vs off)\n",
		r.EngineOverheadPct, r.EngineQueries)
	fmt.Fprintf(w, "\n%-12s %8s %10s %12s %14s\n",
		"fsync_every", "records", "total_ms", "µs/record", "records/s")
	for _, p := range r.Writes {
		fmt.Fprintf(w, "%-12d %8d %10.1f %12.2f %14.0f\n",
			p.FsyncEvery, p.Records, p.TotalMs, p.MicrosPerRecord, p.RecordsPerSec)
	}
	fmt.Fprintf(w, "\n%-8s %9s %10s %14s\n", "replay", "records", "ms", "records/s")
	for _, p := range r.Replay {
		fmt.Fprintf(w, "%-8d %9d %10.2f %14.0f\n",
			p.Segments, p.Records, p.Ms, p.RecordsPerSec)
	}
	fmt.Fprintf(w, "\nprofile convergence (true sel p50 = %.3f)\n", r.TrueSelP50)
	fmt.Fprintf(w, "%-8s %10s %10s\n", "queries", "sel_p50", "abs_err")
	for _, p := range r.Convergence {
		fmt.Fprintf(w, "%-8d %10.4f %10.4f\n", p.Queries, p.SelP50, p.AbsErr)
	}
}

// WriteCSV emits the convergence sweep (the plottable series).
func (r *HistoryBenchResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "queries,sel_p50,abs_err"); err != nil {
		return err
	}
	for _, p := range r.Convergence {
		if _, err := fmt.Fprintf(w, "%d,%.6f,%.6f\n",
			p.Queries, p.SelP50, p.AbsErr); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the machine-readable results.
func (r *HistoryBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// JSONName routes aqpbench's JSON export to a history-specific file.
func (r *HistoryBenchResult) JSONName() string { return "BENCH_history.json" }
