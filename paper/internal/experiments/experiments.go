// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic traces and the cluster cost model. Each
// Fig* function is deterministic under its Config seed, returns a
// structured result, and renders the same rows/series the paper reports;
// cmd/aqpbench and the figure benchmarks (bench_test.go), both in this
// module, are thin wrappers around this package.
//
// Per DESIGN.md, the reproduction targets are shapes — orderings, rough
// ratios and crossover locations — not the absolute numbers measured on
// the authors' proprietary traces and EC2 testbed.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/rng"
	"repro/paper/internal/cluster"
)

// Config scales the experiments. Quick() keeps unit tests and benchmarks
// fast and is cmd/aqpbench's default; Full() approaches the paper's
// settings and is what aqpbench -full runs.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// QueriesPerSet is the number of queries per workload (paper: 100 for
	// closed-form sets, 250 for bootstrap diagnostic sets, 100 per QSet).
	QueriesPerSet int
	// PopulationSize is |D| per synthetic query.
	PopulationSize int
	// SampleSize is the evaluation sample size n (paper: 1,000,000).
	SampleSize int
	// Trials is the number of evaluation samples per query (paper: 100).
	Trials int
	// TruthP is the number of fresh samples used to locate the true
	// confidence interval; it controls the evaluation's own noise floor.
	TruthP int
	// BootstrapK is the resample count (paper: 100).
	BootstrapK int
	// DiagP is the diagnostic subsample count per size (paper: 100).
	DiagP int
	// Workers is local execution parallelism.
	Workers int
}

// Quick returns a configuration small enough for CI: shapes remain, noise
// grows.
func Quick() Config {
	return Config{
		Seed:           2014,
		QueriesPerSet:  12,
		PopulationSize: 60000,
		SampleSize:     6000,
		Trials:         50,
		TruthP:         400,
		BootstrapK:     100,
		DiagP:          50,
		Workers:        4,
	}
}

// Full returns the paper-faithful configuration (minutes of CPU).
func Full() Config {
	return Config{
		Seed:           2014,
		QueriesPerSet:  100,
		PopulationSize: 400000,
		SampleSize:     20000,
		Trials:         100,
		TruthP:         500,
		BootstrapK:     100,
		DiagP:          100,
		Workers:        8,
	}
}

// truthP returns the truth-sample count, defaulting to Trials when unset.
func (c Config) truthP() int {
	if c.TruthP > 0 {
		return c.TruthP
	}
	return c.Trials
}

func (c Config) stream(name string, i int) *rng.Source {
	h := uint64(14695981039346656037)
	for _, b := range []byte(name) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return rng.NewWithStream(c.Seed, h^uint64(i))
}

// SizeStat is a mean with .01/.99 quantile bars, the summary Fig. 1 and
// Fig. 8(c)/(d) plot per point.
type SizeStat struct {
	Mean float64
	Q01  float64
	Q99  float64
}

func summarize(xs []float64) SizeStat {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mean := 0.0
	for _, x := range sorted {
		mean += x
	}
	if len(sorted) > 0 {
		mean /= float64(len(sorted))
	}
	return SizeStat{
		Mean: mean,
		Q01:  quantileSorted(sorted, 0.01),
		Q99:  quantileSorted(sorted, 0.99),
	}
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// cdfPoints renders a CDF over values as (value, fraction<=value) pairs at
// the given resolution.
func cdfPoints(values []float64, points int) [][2]float64 {
	if len(values) == 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	out := make([][2]float64, 0, points)
	for i := 1; i <= points; i++ {
		frac := float64(i) / float64(points)
		idx := int(frac*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, [2]float64{sorted[idx], frac})
	}
	return out
}

// tunedCluster is the physically tuned configuration of §6/§7.3: bounded
// parallelism, ~35% input cache, straggler mitigation on.
func tunedCluster() cluster.Config {
	cfg := cluster.Default()
	cfg.Machines = 20
	cfg.CacheFraction = 0.35
	cfg.Mitigation = true
	return cfg
}

// untunedCluster uses all 100 machines, a minimal input cache and no
// straggler mitigation — the plan-optimized-but-untuned baseline that
// Fig. 8(e)/(f) speedups are measured against.
func untunedCluster() cluster.Config {
	cfg := cluster.Default()
	cfg.Machines = 100
	cfg.CacheFraction = 0.05
	cfg.Mitigation = false
	return cfg
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
