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

// Fig4Bars is one trace's diagnostic assessment (fractions of queries).
type Fig4Bars struct {
	AccurateApprox   float64 // diagnostic accepts and estimation works
	CorrectRejection float64 // diagnostic rejects and estimation fails
	FalsePositives   float64 // diagnostic accepts but estimation fails
	FalseNegatives   float64 // diagnostic rejects but estimation works
}

// Accuracy is the fraction of queries the diagnostic got right.
func (b Fig4Bars) Accuracy() float64 { return b.AccurateApprox + b.CorrectRejection }

// Fig4Result reports diagnostic accuracy per trace for one estimator
// class: Fig. 4(b) for closed forms, Fig. 4(c) for the bootstrap.
type Fig4Result struct {
	Estimator string
	Bars      map[string]Fig4Bars // trace name → bars
}

// Fig4b evaluates the diagnostic with closed-form ξ on workloads of
// AVG/COUNT/SUM/VARIANCE queries (paper: 100 queries per trace; ~73-81%
// accurately approximable, small FP/FN).
func Fig4b(cfg Config) *Fig4Result {
	return fig4(cfg, "closed-form", true)
}

// Fig4c evaluates the diagnostic with bootstrap ξ on complex-aggregate
// workloads (paper: 250 queries per trace; 62.8-89.2% accurate, FP ≤
// 3.2%, FN ≤ 5.4%).
func Fig4c(cfg Config) *Fig4Result {
	return fig4(cfg, "bootstrap", false)
}

func fig4(cfg Config, estName string, closedFormSet bool) *Fig4Result {
	res := &Fig4Result{Estimator: estName, Bars: map[string]Fig4Bars{}}
	for _, kind := range []workload.Kind{workload.Conviva, workload.Facebook} {
		qset1, qset2 := generateQSets(kind, cfg.QueriesPerSet,
			cfg.PopulationSize, cfg.Seed+uint64(kind))
		queries := qset2
		if closedFormSet {
			queries = qset1
		}
		tally := assessQueries(cfg, kind, queries, estName)
		res.Bars[kind.String()] = Fig4Bars{
			AccurateApprox:   tally.Frac(diagnostic.TrueAccept),
			CorrectRejection: tally.Frac(diagnostic.TrueReject),
			FalsePositives:   tally.Frac(diagnostic.FalsePositive),
			FalseNegatives:   tally.Frac(diagnostic.FalseNegative),
		}
	}
	return res
}

// assessQueries runs the diagnostic on one sample per query and compares
// it with the expensive ground truth, in parallel across queries.
func assessQueries(cfg Config, kind workload.Kind, queries []workload.QuerySpec, estName string) *diagnostic.Tally {
	outcomes := make([]diagnostic.Outcome, len(queries))
	valid := make([]bool, len(queries))
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range jobs {
				spec := queries[qi]
				src := cfg.stream("fig4/"+estName+"/"+kind.String(), qi)
				var xi estimator.Estimator
				if estName == "closed-form" {
					xi = estimator.ClosedForm{}
				} else {
					xi = estimator.Bootstrap{K: cfg.BootstrapK}
				}
				if !xi.AppliesTo(spec.Query) {
					continue
				}
				s := sample.WithReplacement(src, spec.Population, cfg.SampleSize)
				theta := func() float64 { return spec.Query.Eval(s) }
				dres, err := diagnostic.Run(context.Background(), src, s, theta, spec.Query, xi,
					diagnostic.DefaultConfig(len(s), cfg.DiagP))
				if err != nil {
					continue
				}
				works := estimator.EstimationWorks(src, spec.Population, spec.Query, xi,
					estimator.EvalConfig{
						SampleSize: cfg.SampleSize,
						Trials:     cfg.Trials,
						TruthP:     cfg.truthP(),
						Alpha:      estimator.ConfidenceLevel,
						DeltaTol:   0.2,
						FailFrac:   0.05,
					})
				outcomes[qi] = diagnostic.Assess(dres.OK, works)
				valid[qi] = true
			}
		}()
	}
	for qi := range queries {
		jobs <- qi
	}
	close(jobs)
	wg.Wait()
	tally := &diagnostic.Tally{}
	for qi := range queries {
		if valid[qi] {
			tally.Add(outcomes[qi])
		}
	}
	return tally
}

// Render writes the figure as a text table.
func (r *Fig4Result) Render(w io.Writer) {
	fprintf(w, "Fig. 4 — diagnostic accuracy for %s error estimation (%% of queries)\n",
		r.Estimator)
	fprintf(w, "%-10s %-18s %-18s %-16s %-16s %-9s\n", "trace",
		"accurate-approx", "correct-rejection", "false-positives", "false-negatives", "accuracy")
	for _, trace := range []string{"conviva", "facebook"} {
		b := r.Bars[trace]
		fprintf(w, "%-10s %-18.1f %-18.1f %-16.1f %-16.1f %-9.1f\n",
			trace, 100*b.AccurateApprox, 100*b.CorrectRejection,
			100*b.FalsePositives, 100*b.FalseNegatives, 100*b.Accuracy())
	}
}
