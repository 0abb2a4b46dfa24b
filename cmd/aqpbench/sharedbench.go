package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/table"
)

// sharedPoint is one batch size of the shared-scan throughput sweep: the
// same offered load (B concurrent clients, one shared engine) served with
// batching off and with MaxBatch=B.
type sharedPoint struct {
	Batch int `json:"batch"`
	// QPSUnbatched / QPSBatched are completed queries per second.
	QPSUnbatched float64 `json:"qps_unbatched"`
	QPSBatched   float64 `json:"qps_batched"`
	// Speedup is batched over unbatched throughput at equal concurrency.
	Speedup float64 `json:"speedup"`
	// ScansUnbatched / ScansBatched count physical passes
	// (aqp_exec_scans_total deltas) each mode performed for the same
	// query count.
	ScansUnbatched int64 `json:"scans_unbatched"`
	ScansBatched   int64 `json:"scans_batched"`
}

// skipPoint is one selectivity of the zone-map pruning sweep on a
// zone-clustered registered table (exact path: samples are shuffled at
// build time, which destroys clustering, so pruning pays off on base
// tables).
type skipPoint struct {
	Selectivity   float64 `json:"selectivity"`
	BlocksTotal   int64   `json:"blocks_total"`
	BlocksSkipped int64   `json:"blocks_skipped"`
	SkipFraction  float64 `json:"skip_fraction"`
	// MsZones / MsNoZones are per-query latencies with pruning on and off
	// (DisableZoneMaps), same data and query.
	MsZones   float64 `json:"ms_zones"`
	MsNoZones float64 `json:"ms_no_zones"`
}

// sharedBenchResult is the shared-scan fixture; it serializes to
// BENCH_shared_scan.json.
type sharedBenchResult struct {
	Rows       int           `json:"rows"`
	SampleRows int           `json:"sample_rows"`
	Queries    int           `json:"queries_per_point"`
	Points     []sharedPoint `json:"points"`

	SkipRows  int         `json:"skip_rows"`
	SkipSweep []skipPoint `json:"skip_sweep"`
}

// JSONName routes this result's machine-readable output to its own file.
func (*sharedBenchResult) JSONName() string { return "BENCH_shared_scan.json" }

// sharedBench measures the two halves of the shared-scan work: inter-query
// batching (one physical pass answers B queued queries) and intra-scan
// zone-map pruning (provably-empty blocks are never filtered).
func sharedBench(rows, sampleRows, queriesPerPoint, skipRows, seed int) *sharedBenchResult {
	res := &sharedBenchResult{
		Rows: rows, SampleRows: sampleRows, Queries: queriesPerPoint,
		SkipRows: skipRows,
	}
	sharedThroughput(res, rows, sampleRows, queriesPerPoint, seed)
	skipSweep(res, skipRows, seed)
	return res
}

// sharedThroughput drives the same query mix through the serving layer with
// batching off and on, at B concurrent clients per point. The mix has four
// distinct selective queries, so a full batch of 16 holds four distinct
// plans (one predicate/projection evaluation each in the shared pass) with
// four whole-plan duplicates apiece.
func sharedThroughput(res *sharedBenchResult, rows, sampleRows, queriesPerPoint, seed int) {
	src := rng.New(uint64(seed))
	times := make(table.Float64Col, rows)
	cities := make(table.StringCol, rows)
	names := []string{"NYC", "SF", "LA", "CHI"}
	for i := 0; i < rows; i++ {
		times[i] = src.LogNormal(4, 0.6)
		cities[i] = names[src.Intn(len(names))]
	}
	tbl := table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
	}, times, cities)
	tracer := obs.NewTracer(obs.Options{})
	// A small resample budget keeps the scan the dominant cost — the sweep
	// measures scan consolidation, not bootstrap throughput. Diagnostics
	// off so no member's exact fallback rescans. The engine's workers
	// parallelize the one shared pass the same way concurrent clients
	// parallelize the unbatched baseline across cores.
	eng := core.New(core.Config{Seed: uint64(seed), Workers: 4,
		BootstrapK: 4, SkipDiagnostics: true, Obs: tracer})
	if err := eng.RegisterTable("Sessions", tbl); err != nil {
		panic("aqpbench: " + err.Error())
	}
	if err := eng.BuildSamples("Sessions", sampleRows); err != nil {
		panic("aqpbench: " + err.Error())
	}
	mix := []string{
		"SELECT AVG(Time) FROM Sessions WHERE Time > 120",
		"SELECT SUM(Time), COUNT(*) FROM Sessions WHERE Time > 150",
		"SELECT AVG(Time) FROM Sessions WHERE Time > 100 AND Time < 140",
		"SELECT COUNT(*) FROM Sessions WHERE City = 'NYC' AND Time > 110",
	}
	scansTotal := func() int64 {
		return tracer.Registry().Counter("aqp_exec_scans_total", "").Value()
	}
	// The whole query set is offered at once — a saturated queue, the
	// regime shared scans exist for. MaxInFlight = B, so the admission
	// queue releases exactly one batch worth of queries at a time and
	// groups seal by fill, not by the hold timer.
	drive := func(maxBatch, inFlight int) (qps float64, scans int64) {
		srv := serve.New(eng, serve.Config{
			MaxInFlight: inFlight,
			MaxQueue:    queriesPerPoint,
			MaxBatch:    maxBatch,
			BatchHold:   2 * time.Millisecond,
		})
		before := scansTotal()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < queriesPerPoint; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := srv.Submit(context.Background(), mix[i%len(mix)]); err != nil {
					panic("aqpbench: " + err.Error())
				}
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		if err := srv.Shutdown(context.Background()); err != nil {
			panic("aqpbench: " + err.Error())
		}
		return float64(queriesPerPoint) / elapsed, scansTotal() - before
	}

	for _, b := range []int{1, 4, 16, 64} {
		inFlight := b
		if inFlight < 4 {
			inFlight = 4
		}
		qps0, scans0 := drive(0, inFlight)
		qps1, scans1 := drive(b, inFlight)
		res.Points = append(res.Points, sharedPoint{
			Batch:          b,
			QPSUnbatched:   qps0,
			QPSBatched:     qps1,
			Speedup:        qps1 / qps0,
			ScansUnbatched: scans0,
			ScansBatched:   scans1,
		})
	}
}

// skipSweep queries a zone-clustered registered table (monotone Value
// column) at fixed selectivities, with zone maps on and off. The filtered
// range is contiguous, so a selectivity-s filter leaves ~(1-s) of the
// blocks provably empty.
func skipSweep(res *sharedBenchResult, n, seed int) {
	build := func(disable bool) *core.Engine {
		src := rng.New(uint64(seed) + 1)
		vals := make(table.Float64Col, n)
		for i := range vals {
			vals[i] = float64(i) + 0.5*src.Float64()
		}
		tbl := table.MustNew(table.Schema{{Name: "Value", Type: table.Float64}}, vals)
		eng := core.New(core.Config{Seed: uint64(seed), Workers: 1,
			DisableZoneMaps: disable})
		if err := eng.RegisterTable("Clustered", tbl); err != nil {
			panic("aqpbench: " + err.Error())
		}
		return eng
	}
	pruned, plain := build(false), build(true)
	timeQuery := func(eng *core.Engine, q string) (float64, *core.Answer) {
		// Warm once, then take the best of 3: block pruning changes the
		// work done, not its variance.
		var best float64
		var ans *core.Answer
		for rep := 0; rep < 4; rep++ {
			start := time.Now()
			a, err := eng.Run(context.Background(), q)
			if err != nil {
				panic("aqpbench: " + err.Error())
			}
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			if rep == 0 {
				continue
			}
			if ans == nil || ms < best {
				best, ans = ms, a
			}
		}
		return best, ans
	}
	for _, sel := range []float64{0.01, 0.1, 0.5, 1.0} {
		q := fmt.Sprintf("SELECT AVG(Value), COUNT(*) FROM Clustered WHERE Value < %d",
			int(sel*float64(n)))
		msZ, ansZ := timeQuery(pruned, q)
		msP, _ := timeQuery(plain, q)
		total := int64((n + table.ZoneBlockRows - 1) / table.ZoneBlockRows)
		res.SkipSweep = append(res.SkipSweep, skipPoint{
			Selectivity:   sel,
			BlocksTotal:   total,
			BlocksSkipped: ansZ.Counters.BlocksSkipped,
			SkipFraction:  float64(ansZ.Counters.BlocksSkipped) / float64(total),
			MsZones:       msZ,
			MsNoZones:     msP,
		})
	}
}

// Render implements result.
func (r *sharedBenchResult) Render(w io.Writer) {
	fmt.Fprintf(w, "shared-scan batching sweep (rows=%d, sample=%d, %d queries/point)\n",
		r.Rows, r.SampleRows, r.Queries)
	fmt.Fprintf(w, "  %-8s %12s %12s %9s %10s %10s\n",
		"batch", "qps off", "qps on", "speedup", "scans off", "scans on")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-8d %12.1f %12.1f %8.2fx %10d %10d\n",
			p.Batch, p.QPSUnbatched, p.QPSBatched, p.Speedup,
			p.ScansUnbatched, p.ScansBatched)
	}
	fmt.Fprintf(w, "zone-map pruning sweep (clustered table, %d rows)\n", r.SkipRows)
	fmt.Fprintf(w, "  %-12s %8s %9s %10s %10s %12s\n",
		"selectivity", "blocks", "skipped", "fraction", "ms zones", "ms no-zones")
	for _, p := range r.SkipSweep {
		fmt.Fprintf(w, "  %-12.2f %8d %9d %10.2f %10.3f %12.3f\n",
			p.Selectivity, p.BlocksTotal, p.BlocksSkipped, p.SkipFraction,
			p.MsZones, p.MsNoZones)
	}
}

// WriteCSV implements result.
func (r *sharedBenchResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "batch,qps_unbatched,qps_batched,speedup,scans_unbatched,scans_batched"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%d,%.2f,%.2f,%.3f,%d,%d\n",
			p.Batch, p.QPSUnbatched, p.QPSBatched, p.Speedup,
			p.ScansUnbatched, p.ScansBatched); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "selectivity,blocks_total,blocks_skipped,skip_fraction,ms_zones,ms_no_zones"); err != nil {
		return err
	}
	for _, p := range r.SkipSweep {
		if _, err := fmt.Fprintf(w, "%.3f,%d,%d,%.3f,%.3f,%.3f\n",
			p.Selectivity, p.BlocksTotal, p.BlocksSkipped, p.SkipFraction,
			p.MsZones, p.MsNoZones); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the machine-readable form consumed by CI and tooling.
func (r *sharedBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
