package estimator

import (
	"math"

	"repro/internal/rng"
	"repro/internal/sample"
)

// Verdict classifies how an error-estimation technique behaves on a query,
// following §3: estimation "fails" when the relative width deviation δ
// falls outside [−DeltaTol, +DeltaTol] on at least FailFrac of the trial
// samples, split by the direction of failure.
type Verdict int

// Evaluation verdicts.
const (
	// Correct: the technique produced acceptably sized intervals.
	Correct Verdict = iota
	// Optimistic: intervals too narrow (δ < −tol) — the dangerous case.
	Optimistic
	// Pessimistic: intervals too wide (δ > +tol) — wasteful.
	Pessimistic
	// NotApplicable: the technique cannot be applied to the query.
	NotApplicable
)

func (v Verdict) String() string {
	switch v {
	case Correct:
		return "correct"
	case Optimistic:
		return "optimistic"
	case Pessimistic:
		return "pessimistic"
	case NotApplicable:
		return "not-applicable"
	default:
		return "unknown"
	}
}

// EvalConfig carries the §3 evaluation protocol's parameters: the paper
// draws 100 samples, tolerates |δ| ≤ 0.2, calls a technique failed when ≥5%
// of samples deviate, and uses 95% intervals. The zero value is invalid.
type EvalConfig struct {
	SampleSize int     // n: rows per trial sample
	Trials     int     // number of trial samples (paper: 100)
	TruthP     int     // samples used to compute the true interval
	Alpha      float64 // confidence level (paper: 0.95)
	DeltaTol   float64 // acceptable |δ| (paper: 0.2)
	FailFrac   float64 // fraction of trials outside tol ⇒ failure (paper: 0.05)
}

// EvalResult reports the outcome of evaluating one technique on one query.
type EvalResult struct {
	Verdict Verdict
	// Deltas are the per-trial δ values (empty when not applicable).
	Deltas []float64
	// FracOptimistic and FracPessimistic are the fractions of trials with
	// δ below −tol and above +tol respectively.
	FracOptimistic  float64
	FracPessimistic float64
	// Truth is the ground truth used for comparison.
	Truth Truth
}

// Evaluate runs the §3 protocol: compute the true confidence interval for
// (population, q, n), then draw cfg.Trials fresh samples, estimate an
// interval on each with est, and classify the technique by how often and
// in which direction δ leaves the tolerance band.
func Evaluate(src *rng.Source, population []float64, q Query, est Estimator, cfg EvalConfig) EvalResult {
	if !est.AppliesTo(q) {
		return EvalResult{Verdict: NotApplicable}
	}
	truth := ComputeTruth(src, population, q, cfg.SampleSize, cfg.TruthP, cfg.Alpha)
	res := EvalResult{Truth: truth, Deltas: make([]float64, 0, cfg.Trials)}
	optim, pessim := 0, 0
	for t := 0; t < cfg.Trials; t++ {
		s := sample.WithReplacement(src, population, cfg.SampleSize)
		iv, err := est.Interval(src, s, q, cfg.Alpha)
		if err != nil {
			return EvalResult{Verdict: NotApplicable}
		}
		d := Delta(iv, truth.Interval)
		res.Deltas = append(res.Deltas, d)
		switch {
		case math.IsNaN(d):
			// Degenerate truth width: treat as optimistic failure only if
			// the estimate is nonzero... a zero-width truth means the
			// estimator cannot be meaningfully scored; skip the trial.
		case d < -cfg.DeltaTol:
			optim++
		case d > cfg.DeltaTol:
			pessim++
		}
	}
	n := float64(cfg.Trials)
	res.FracOptimistic = float64(optim) / n
	res.FracPessimistic = float64(pessim) / n
	switch {
	case res.FracOptimistic >= cfg.FailFrac && res.FracOptimistic >= res.FracPessimistic:
		res.Verdict = Optimistic
	case res.FracPessimistic >= cfg.FailFrac:
		res.Verdict = Pessimistic
	default:
		res.Verdict = Correct
	}
	return res
}

// EstimationWorks is the boolean ground truth the diagnostic is evaluated
// against (§4.2): true when the technique's verdict on this query is
// Correct.
func EstimationWorks(src *rng.Source, population []float64, q Query, est Estimator, cfg EvalConfig) bool {
	return Evaluate(src, population, q, est, cfg).Verdict == Correct
}
