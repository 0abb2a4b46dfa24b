// Command aqpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	aqpbench -fig all            # every experiment, quick configuration
//	aqpbench -fig 3 -full        # Fig. 3 at paper-faithful scale
//	aqpbench -fig 8c -seed 7     # latency vs parallelism sweep
//	aqpbench -fig all -csv out/  # also write plot-ready CSV per figure
//
// Figures: 1, 3 (includes the §3 table), 4b, 4c, 7, 8ab, 8c, 8d, 8ef, 9,
// ablation, obs-overhead (per-query latency
// with telemetry off vs spans vs spans+event-log vs spans+watchdog vs
// spans+history vs spans+export — the last posting OTLP batches to a
// local stub collector — interleaved round-robin after a shared warmup
// so run order cannot bias the baseline; writes BENCH_obs_overhead.json),
// kernel (the §5.3.1 loop-order
// ablation, which also writes machine-readable BENCH_kernel.json), and
// concurrency (serving throughput vs client count through the admission
// layer, which writes machine-readable BENCH_concurrency.json), and
// shared-scan (inter-query batched throughput vs batch size plus the
// zone-map block-skipping sweep, which writes machine-readable
// BENCH_shared_scan.json), and storage (per-backing footprint, exact-scan
// throughput, and the sample-query latency-vs-data-volume sweep, which
// writes machine-readable BENCH_storage.json), and history (the durable
// telemetry store's write-path overhead, append throughput per fsync
// policy, replay scaling, and workload-profile convergence, which writes
// machine-readable BENCH_history.json), and serve-e2e (the network
// front-end load sweep: hundreds of concurrent MySQL-wire and HTTP
// connections driven through a full in-process aqpd stack, which writes
// machine-readable BENCH_serve_e2e.json), and cache (the cross-query
// decoded-block/answer cache: repeat-query speedup and hit-rate ramp with
// the budget above the hot working set, bit-exactness and graceful
// degradation with the budget far below it, which writes machine-readable
// BENCH_cache.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

// result is any experiment output: renderable as text and exportable as
// CSV.
type result interface {
	Render(w io.Writer)
	WriteCSV(w io.Writer) error
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 3, 4b, 4c, 7, 8ab, 8c, 8d, 8ef, 9, ablation, kernel, concurrency, all")
	full := flag.Bool("full", false, "run at paper-faithful scale (slow)")
	seed := flag.Uint64("seed", 2014, "random seed")
	queries := flag.Int("queries", 0, "override queries per set")
	workers := flag.Int("workers", 0, "override worker count")
	csvDir := flag.String("csv", "", "also write plot-ready CSV files into this directory")
	benchJSON := flag.String("benchjson", "BENCH_kernel.json", "output path for the kernel benchmark's machine-readable results")
	flag.Parse()

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	cfg.Seed = *seed
	if *queries > 0 {
		cfg.QueriesPerSet = *queries
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}

	runners := map[string]func() result{
		"1":            func() result { return experiments.Fig1(cfg) },
		"3":            func() result { return experiments.Fig3(cfg) },
		"4b":           func() result { return experiments.Fig4b(cfg) },
		"4c":           func() result { return experiments.Fig4c(cfg) },
		"7":            func() result { return experiments.Fig7(cfg) },
		"8ab":          func() result { return experiments.Fig8ab(cfg) },
		"8c":           func() result { return experiments.Fig8c(cfg) },
		"8d":           func() result { return experiments.Fig8d(cfg) },
		"8ef":          func() result { return experiments.Fig8ef(cfg) },
		"9":            func() result { return experiments.Fig9(cfg) },
		"ablation":     func() result { return experiments.DiagnosticAblation(cfg) },
		"obs-overhead": func() result { return experiments.ObsOverhead(cfg) },
		"history":      func() result { return experiments.HistoryBench(cfg) },
		"kernel": func() result {
			n, iters := 100000, 3
			if *full {
				n, iters = 1000000, 5
			}
			return kernelBench(n, 100, iters, int(cfg.Seed))
		},
		"concurrency": func() result {
			rows, sample, per := 100000, 10000, 32
			if *full {
				rows, sample, per = 1000000, 100000, 256
			}
			if *queries > 0 {
				per = *queries
			}
			return concBench(rows, sample, per, int(cfg.Seed))
		},
		"shared-scan": func() result {
			rows, sample, per, skipRows := 200000, 100000, 192, 256*1024
			if *full {
				rows, sample, per, skipRows = 2000000, 1000000, 512, 4*1024*1024
			}
			if *queries > 0 {
				per = *queries
			}
			return sharedBench(rows, sample, per, skipRows, int(cfg.Seed))
		},
		"storage": func() result {
			rows, sample := 100000, 16384
			if *full {
				rows, sample = 1000000, 100000
			}
			return storageBench(rows, sample, int(cfg.Seed))
		},
		"cache": func() result {
			rows, sample, rounds := 100000, 16384, 6
			if *full {
				rows, sample, rounds = 1000000, 100000, 8
			}
			return cacheBench(rows, sample, rounds, int(cfg.Seed))
		},
		"serve-e2e": func() result {
			rows, sample, perConn := 100000, 10000, 4
			connCounts := []int{16, 64, 128}
			if *full {
				rows, sample, perConn = 1000000, 100000, 8
				connCounts = []int{32, 128, 256}
			}
			if *queries > 0 {
				perConn = *queries
			}
			return serveBench(rows, sample, perConn, connCounts, int(cfg.Seed))
		},
	}
	order := []string{"1", "3", "4b", "4c", "7", "8ab", "8c", "8d", "8ef", "9", "ablation", "obs-overhead", "history", "kernel", "concurrency", "shared-scan", "storage", "cache", "serve-e2e"}

	var selected []string
	switch strings.ToLower(*fig) {
	case "all":
		selected = order
	default:
		key := strings.ToLower(strings.TrimPrefix(*fig, "fig"))
		// Accept the paper's sub-figure labels too.
		aliases := map[string]string{
			"7a": "7", "7b": "7", "8a": "8ab", "8b": "8ab",
			"8e": "8ef", "8f": "8ef", "9a": "9", "9b": "9", "s3": "3",
		}
		if a, ok := aliases[key]; ok {
			key = a
		}
		if _, ok := runners[key]; !ok {
			fmt.Fprintf(os.Stderr, "aqpbench: unknown figure %q (want one of %v)\n",
				*fig, order)
			os.Exit(2)
		}
		selected = []string{key}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "aqpbench:", err)
			os.Exit(1)
		}
	}

	for _, key := range selected {
		start := time.Now()
		res := runners[key]()
		res.Render(os.Stdout)
		if jr, ok := res.(interface{ WriteJSON(io.Writer) error }); ok && *benchJSON != "" {
			jsonPath := *benchJSON
			// Results carrying their own file name (the stage-trace export)
			// keep distinct outputs when several JSON figures run in one
			// invocation.
			if named, ok := res.(interface{ JSONName() string }); ok {
				jsonPath = named.JSONName()
			}
			f, err := os.Create(jsonPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aqpbench:", err)
				os.Exit(1)
			}
			if err := jr.WriteJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "aqpbench:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "aqpbench:", err)
				os.Exit(1)
			}
			fmt.Printf("[json written to %s]\n", jsonPath)
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, "fig"+key+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aqpbench:", err)
				os.Exit(1)
			}
			if err := res.WriteCSV(f); err != nil {
				fmt.Fprintln(os.Stderr, "aqpbench:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "aqpbench:", err)
				os.Exit(1)
			}
			fmt.Printf("[csv written to %s]\n", path)
		}
		fmt.Printf("[fig %s regenerated in %v]\n\n", key, time.Since(start).Round(time.Millisecond))
	}
}
