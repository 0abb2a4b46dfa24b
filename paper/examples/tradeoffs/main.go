// Tradeoffs explores the physical-plan tuning space of §6 on the cluster
// cost model: degree of parallelism, input-cache fraction and straggler
// mitigation, for one representative bootstrap-heavy query pipeline.
package main

import (
	"fmt"
	"log"

	"repro/internal/rng"
	"repro/paper/internal/cluster"
)

func main() {
	// A representative QSet-2 query: 20 GB sample, 100M rows, K=100
	// bootstrap, the paper's diagnostic ladder, fully plan-optimized.
	shape := cluster.QueryShape{
		SampleMB:     20000,
		SampleRows:   300e6,
		Selectivity:  0.5,
		BootstrapK:   100,
		DiagSizes:    []int{750000, 1500000, 3000000},
		DiagP:        100,
		Consolidated: true,
		Pushdown:     true,
		Fanout:       1,
	}

	fmt.Println("== degree of parallelism (Fig. 8(c)) ==")
	fmt.Printf("%-10s %-12s\n", "machines", "latency (s)")
	for _, m := range []int{5, 10, 20, 40, 60, 80, 100} {
		cfg := cluster.Default()
		cfg.Machines = m
		cfg.StragglerProb = 0
		fmt.Printf("%-10d %-12.2f\n", m, simulate(cfg, shape))
	}

	fmt.Println("\n== fraction of samples cached (Fig. 8(d)) ==")
	fmt.Printf("%-10s %-12s\n", "cached", "latency (s)")
	for _, f := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0} {
		cfg := cluster.Default()
		cfg.Machines = 30
		cfg.CacheFraction = f
		cfg.StragglerProb = 0
		fmt.Printf("%-10.0f%% %-12.2f\n", 100*f, simulate(cfg, shape))
	}

	fmt.Println("\n== straggler mitigation (§6.3) ==")
	for _, mitigate := range []bool{false, true} {
		cfg := cluster.Default()
		cfg.Machines = 30
		cfg.Mitigation = mitigate
		// Average across straggler realizations.
		var sum float64
		const trials = 50
		for i := uint64(0); i < trials; i++ {
			cl, err := cluster.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			sum += cl.SimulateBreakdown(rng.New(1000+i), shape).Total()
		}
		fmt.Printf("mitigation=%-5v mean latency %.2fs over %d straggler draws\n",
			mitigate, sum/trials, trials)
	}
}

func simulate(cfg cluster.Config, shape cluster.QueryShape) float64 {
	cl, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return cl.SimulateBreakdown(rng.New(1), shape).Total()
}
