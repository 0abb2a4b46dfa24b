package paper

// One benchmark per figure of the paper's evaluation, plus the ablations of
// the diagnostic's p and the simulator's straggler mitigation. Each bench
// runs a scaled-down deterministic configuration per iteration; run
//
//	go test -run '^$' -bench . -benchmem
//
// in paper/, or use cmd/aqpbench for full-scale tabular output.

import (
	"context"
	"testing"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/paper/internal/cluster"
	"repro/paper/internal/experiments"
	"repro/paper/internal/protocol"
)

// benchConfig is deliberately small: benchmarks measure per-iteration cost
// of regenerating a figure, not statistical power.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.QueriesPerSet = 4
	cfg.PopulationSize = 20000
	cfg.SampleSize = 2000
	cfg.Trials = 12
	cfg.TruthP = 60
	cfg.BootstrapK = 40
	cfg.DiagP = 25
	cfg.Workers = 4
	return cfg
}

// BenchmarkFig1SampleSizes regenerates Fig. 1 (required sample size per
// technique and target relative error).
func BenchmarkFig1SampleSizes(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig1(cfg)
		if len(res.Sizes) != 3 {
			b.Fatal("malformed result")
		}
	}
}

// BenchmarkFig3EstimatorAccuracy regenerates Fig. 3 and the §3 statistics
// (bootstrap & closed-form accuracy on both traces).
func BenchmarkFig3EstimatorAccuracy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(cfg)
		if len(res.Bars) != 2 {
			b.Fatal("malformed result")
		}
	}
}

// BenchmarkFig4bDiagnosticClosedForm regenerates Fig. 4(b).
func BenchmarkFig4bDiagnosticClosedForm(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4b(cfg)
		if len(res.Bars) != 2 {
			b.Fatal("malformed result")
		}
	}
}

// BenchmarkFig4cDiagnosticBootstrap regenerates Fig. 4(c).
func BenchmarkFig4cDiagnosticBootstrap(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4c(cfg)
		if len(res.Bars) != 2 {
			b.Fatal("malformed result")
		}
	}
}

// BenchmarkFig7NaivePipeline regenerates Fig. 7(a)+(b): naive per-query
// latency on the simulated cluster.
func BenchmarkFig7NaivePipeline(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7(cfg)
		if len(res.QSet1) == 0 || len(res.QSet2) == 0 {
			b.Fatal("malformed result")
		}
	}
}

// BenchmarkFig8abPlanOptimizations regenerates Fig. 8(a)+(b): plan
// optimization speedup CDFs.
func BenchmarkFig8abPlanOptimizations(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8ab(cfg)
		if len(res.ErrQ2) == 0 {
			b.Fatal("malformed result")
		}
	}
}

// BenchmarkFig8cParallelismSweep regenerates Fig. 8(c).
func BenchmarkFig8cParallelismSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8c(cfg)
		if len(res.Times) == 0 {
			b.Fatal("malformed result")
		}
	}
}

// BenchmarkFig8dCacheSweep regenerates Fig. 8(d).
func BenchmarkFig8dCacheSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8d(cfg)
		if len(res.Times) == 0 {
			b.Fatal("malformed result")
		}
	}
}

// BenchmarkFig8efPhysicalTuning regenerates Fig. 8(e)+(f).
func BenchmarkFig8efPhysicalTuning(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8ef(cfg)
		if len(res.TotalQ2) == 0 {
			b.Fatal("malformed result")
		}
	}
}

// BenchmarkFig9OptimizedPipeline regenerates Fig. 9(a)+(b).
func BenchmarkFig9OptimizedPipeline(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9(cfg)
		if len(res.QSet1) == 0 {
			b.Fatal("malformed result")
		}
	}
}

// --- Ablations ---

// BenchmarkAblationDiagnosticP shows the accuracy-vs-cost effect of the
// diagnostic's p parameter (the paper's "tens of thousands of subsample
// queries" motivation).
func BenchmarkAblationDiagnosticP(b *testing.B) {
	src := rng.New(3)
	s := make([]float64, 60000)
	for i := range s {
		s[i] = src.LogNormal(4, 0.7)
	}
	q := estimator.Query{Kind: estimator.Avg}
	t := q.Eval(s)
	theta := func() float64 { return t }
	for _, p := range []int{25, 50, 100} {
		b.Run(map[int]string{25: "p25", 50: "p50", 100: "p100"}[p], func(b *testing.B) {
			cfg := protocol.DiagnosticConfig(len(s), p)
			for i := 0; i < b.N; i++ {
				if _, err := diagnostic.Run(context.Background(), rng.New(uint64(i)), s, theta, q,
					estimator.ClosedForm{}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStragglerMitigation quantifies §6.3 on the simulator.
func BenchmarkAblationStragglerMitigation(b *testing.B) {
	shape := cluster.QueryShape{
		SampleMB: 20000, SampleRows: 100e6, Selectivity: 0.5,
		BootstrapK: 100, DiagSizes: []int{250000, 500000, 1000000}, DiagP: 100,
		Consolidated: true, Pushdown: true, Fanout: 1,
	}
	for _, mit := range []bool{false, true} {
		name := "without-mitigation"
		if mit {
			name = "with-mitigation"
		}
		b.Run(name, func(b *testing.B) {
			cfg := cluster.Default()
			cfg.Mitigation = mit
			cl, err := cluster.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			total := 0.0
			for i := 0; i < b.N; i++ {
				total += cl.SimulateBreakdown(rng.New(uint64(i)), shape).Total()
			}
			b.ReportMetric(total/float64(b.N), "sim-seconds/query")
		})
	}
}
