package estimator

import (
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/stats"
)

// Truth holds the ground-truth quantities of §2.2 for one (dataset, query,
// sample size) triple: the exact answer θ(D) and the "true confidence
// interval" — the symmetric interval around θ(D) covering exactly α of the
// sampling distribution of θ(S), approximated with p fresh samples.
type Truth struct {
	Answer    float64   // θ(D)
	Interval  Interval  // centered on θ(D)
	Estimates []float64 // the p sample estimates θ(S₁)...θ(S_p)
}

// ComputeTruth draws p independent samples of size n (with replacement)
// from population, evaluates θ on each, and returns the ground truth. This
// is the expensive oracle the diagnostic exists to avoid; the evaluation
// harness and the tests use it directly.
func ComputeTruth(src *rng.Source, population []float64, q Query, n, p int, alpha float64) Truth {
	answer := q.Eval(population)
	ests := make([]float64, p)
	for i := range ests {
		s := sample.WithReplacement(src, population, n)
		ests[i] = q.Eval(s)
	}
	half := stats.SymmetricHalfWidth(ests, answer, alpha)
	return Truth{
		Answer:    answer,
		Interval:  Interval{Center: answer, HalfWidth: half},
		Estimates: ests,
	}
}
