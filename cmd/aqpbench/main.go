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
// ablation. Serving performance is measured by bench/run.sh, not here.
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
	// order is the one list of figure keys: -fig all runs it, and the help
	// text and the unknown-figure error print it.
	order := []string{"1", "3", "4b", "4c", "7", "8ab", "8c", "8d", "8ef", "9", "ablation"}
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(order, ", ")+", all")
	full := flag.Bool("full", false, "run at paper-faithful scale (slow)")
	seed := flag.Uint64("seed", 2014, "random seed")
	queries := flag.Int("queries", 0, "override queries per set")
	workers := flag.Int("workers", 0, "override worker count")
	csvDir := flag.String("csv", "", "also write plot-ready CSV files into this directory")
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
		"1":        func() result { return experiments.Fig1(cfg) },
		"3":        func() result { return experiments.Fig3(cfg) },
		"4b":       func() result { return experiments.Fig4b(cfg) },
		"4c":       func() result { return experiments.Fig4c(cfg) },
		"7":        func() result { return experiments.Fig7(cfg) },
		"8ab":      func() result { return experiments.Fig8ab(cfg) },
		"8c":       func() result { return experiments.Fig8c(cfg) },
		"8d":       func() result { return experiments.Fig8d(cfg) },
		"8ef":      func() result { return experiments.Fig8ef(cfg) },
		"9":        func() result { return experiments.Fig9(cfg) },
		"ablation": func() result { return experiments.DiagnosticAblation(cfg) },
	}

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
