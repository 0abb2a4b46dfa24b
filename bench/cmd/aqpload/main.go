// Command aqpload is the benchmark for aqpd's serving stack.
//
//	aqpload --workload fb_mix --seed 1 --seconds 20 --trace 0   end-to-end metrics of one workload
//	aqpload --workload fb_mix --seed 1 --seconds 20 --trace 1   per-layer metrics of one workload
//	aqpload -seed 1                                             all four workloads, end to end
//	aqpload -trace 1 -seed 1                                    all four workloads, per layer
//	aqpload -selfcheck                                          two interleaved sets of runs, A/B table
//	aqpload serve ...                                           (internal) the serving child process
//
// The last line of standard output of a run is one JSON object with the
// keys correct, attempted, failed and metrics. See ../../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/bench/harness"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(harness.ServeMain(os.Args[2:]))
	}
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four, one after another)")
		seed      = flag.Uint64("seed", 1, "seed for the slot order and the Day window literals of always-exact queries")
		seconds   = flag.Int("seconds", harness.RefSeconds, "nominal length of the timed part; sets the pass count")
		trace     = flag.Int("trace", 0, "0 = end-to-end metrics from an untraced child process; 1 = per-layer metrics from a traced in-process run")
		quick     = flag.Bool("quick", false, "10x smaller smoke run")
		selfcheck = flag.Bool("selfcheck", false, "run the suite as two interleaved sets and compare them")
		runs      = flag.Int("runs", 5, "runs per set for -selfcheck")
		outDir    = flag.String("out", "bench/out", "directory for the store file and trace files")
		specPath  = flag.String("spec", "BENCHMARK.json", "benchmark definition -selfcheck takes the bounds from")
	)
	flag.Parse()
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	var workloads []*harness.Workload
	if *workload == "" {
		workloads = harness.Workloads()
	} else if w := harness.WorkloadByName(*workload); w != nil {
		workloads = []*harness.Workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	base := harness.RunConfig{Seed: *seed, Seconds: *seconds, Quick: *quick, OutDir: *outDir, Exe: exe}

	if *selfcheck {
		spec, err := harness.LoadSpec(*specPath)
		if err != nil {
			fatal(err)
		}
		ok, err := harness.SelfCheck(os.Stdout, base, workloads, *runs, spec)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// With several workloads the summary line carries each metric under
	// "<workload>/<metric>"; a single workload (what the driver runs) uses
	// the bare names of BENCHMARK.json.
	summary := result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, w := range workloads {
		cfg := base
		cfg.Workload = w
		rep, err := run(cfg, *trace != 0)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		fmt.Printf("== %s seed=%d trace=%d: %d ops attempted, %d failed\n",
			w.Name, *seed, *trace, rep.Attempted, rep.Failed)
		if len(rep.Problems) > 0 || rep.Failed > 0 {
			// A failed gate exits non-zero before any metric prints.
			for _, p := range rep.Problems {
				fmt.Fprintln(os.Stderr, "aqpload: FAIL:", p)
			}
			os.Exit(1)
		}
		for _, m := range rep.Metrics {
			fmt.Printf("%-40s %14.6g %s\n", m.Name, m.Value, m.Unit)
			name := m.Name
			if len(workloads) > 1 {
				name = w.Name + "/" + m.Name
			}
			summary.Metrics[name] = metricJSON{m.Value, m.Unit}
		}
		for _, m := range rep.Timing {
			fmt.Printf("  (not gated) %-26s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
		for _, m := range rep.Info {
			fmt.Printf("  (info) %-31s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
		summary.Attempted += rep.Attempted
		summary.Failed += rep.Failed
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// run is one workload's run. The untraced run reports the end-to-end
// metrics and prints its timings beside them; the traced run reports the
// per-layer metrics, among them the timings of a brief untraced run (one
// boot, one timed pass) against the child process.
func run(cfg harness.RunConfig, traced bool) (*harness.Report, error) {
	if !traced {
		return harness.Run(cfg)
	}
	rep, err := harness.Trace(cfg)
	if err != nil || len(rep.Problems) > 0 {
		return rep, err
	}
	cfg.Brief = true
	brief, err := harness.Run(cfg)
	if err != nil {
		return nil, err
	}
	rep.Metrics = append(rep.Metrics, brief.Timing...)
	rep.Attempted += brief.Attempted
	rep.Failed += brief.Failed
	rep.Problems = append(rep.Problems, brief.Problems...)
	return rep, nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aqpload:", err)
	os.Exit(1)
}
