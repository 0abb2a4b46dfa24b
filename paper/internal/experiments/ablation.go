package experiments

import (
	"context"
	"io"
	"sync"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/sample"
	"repro/internal/workload"
)

// DiagAblationResult reports diagnostic accuracy and cost as a function of
// p, the number of subsamples per ladder size — the knob behind the
// paper's "tens of thousands of subsample queries" and the reason the
// systems optimizations matter. More subsamples buy accuracy (fewer noisy
// rejections) at linear cost.
type DiagAblationResult struct {
	Ps []int
	// Accuracy is the fraction of queries the diagnostic judged correctly
	// at each p.
	Accuracy []float64
	// FalsePositives is the dangerous-direction error rate at each p.
	FalsePositives []float64
	// SubsampleQueries is the mean number of subsample evaluations the
	// diagnostic performed per query at each p (the cost axis).
	SubsampleQueries []float64
}

// DiagnosticAblation sweeps the diagnostic's p parameter over a mixed
// easy/hard workload, holding the expensive ground truth fixed per query.
func DiagnosticAblation(cfg Config) *DiagAblationResult {
	ps := []int{25, 50, 100}
	q1, q2 := generateQSets(workload.Conviva, cfg.QueriesPerSet,
		cfg.PopulationSize, cfg.Seed+77)
	queries := append(append([]workload.QuerySpec{}, q1...), q2...)

	type truthRec struct {
		xi    estimator.Estimator
		works bool
		ok    bool
	}
	truths := make([]truthRec, len(queries))
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}

	// Ground truth once per query.
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range jobs {
				spec := queries[qi]
				var xi estimator.Estimator
				if spec.Query.ClosedFormApplicable() {
					xi = estimator.ClosedForm{}
				} else {
					xi = estimator.Bootstrap{K: cfg.BootstrapK}
				}
				if !xi.AppliesTo(spec.Query) {
					continue
				}
				src := cfg.stream("ablation-truth", qi)
				works := estimator.EstimationWorks(src, spec.Population, spec.Query, xi,
					estimator.EvalConfig{
						SampleSize: cfg.SampleSize,
						Trials:     cfg.Trials,
						TruthP:     cfg.truthP(),
						Alpha:      estimator.ConfidenceLevel, DeltaTol: 0.2, FailFrac: 0.05,
					})
				truths[qi] = truthRec{xi: xi, works: works, ok: true}
			}
		}()
	}
	for qi := range queries {
		jobs <- qi
	}
	close(jobs)
	wg.Wait()

	res := &DiagAblationResult{Ps: ps}
	for _, p := range ps {
		var tally diagnostic.Tally
		totalSubQ := 0
		counted := 0
		for qi, spec := range queries {
			if !truths[qi].ok {
				continue
			}
			src := cfg.stream("ablation-diag", qi*1000+p)
			s := sample.WithReplacement(src, spec.Population, cfg.SampleSize)
			theta := func() float64 { return spec.Query.Eval(s) }
			dres, err := diagnostic.Run(context.Background(), src, s, theta, spec.Query, truths[qi].xi,
				diagnostic.DefaultConfig(len(s), p))
			if err != nil {
				continue
			}
			tally.Add(diagnostic.Assess(dres.OK, truths[qi].works))
			totalSubQ += dres.SubsampleQueries
			counted++
		}
		res.Accuracy = append(res.Accuracy, tally.AccurateFrac())
		res.FalsePositives = append(res.FalsePositives, tally.Frac(diagnostic.FalsePositive))
		avg := 0.0
		if counted > 0 {
			avg = float64(totalSubQ) / float64(counted)
		}
		res.SubsampleQueries = append(res.SubsampleQueries, avg)
	}
	return res
}

// Render writes the ablation as a table.
func (r *DiagAblationResult) Render(w io.Writer) {
	fprintf(w, "Diagnostic ablation — accuracy and cost vs subsamples per size (p)\n")
	fprintf(w, "%-6s %-12s %-17s %-20s\n", "p", "accuracy", "false-positives", "subsample queries")
	for i, p := range r.Ps {
		fprintf(w, "%-6d %-12.2f %-17.2f %-20.0f\n",
			p, r.Accuracy[i], r.FalsePositives[i], r.SubsampleQueries[i])
	}
}
