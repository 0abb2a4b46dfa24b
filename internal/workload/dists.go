// Package workload generates synthetic query traces that reproduce the
// published marginal statistics of the paper's two production workloads:
// the Facebook trace (69,438 Hive queries; MIN 33.35%, COUNT 24.67%, AVG
// 12.20%, SUM 10.11%, MAX 2.87% of queries, 11.01% containing UDFs) and
// the Conviva trace (18,321 queries; AVG/COUNT/PERCENTILE/MAX ≈ 32.3%
// combined, 42.07% containing UDFs). The underlying data columns mix
// lognormal session-time-like shapes, Pareto heavy tails, Gaussian
// measurement noise and spiky outlier-contaminated columns, which is what
// drives the §3 estimation failures.
//
// The original traces are proprietary; this generator is the substitution
// documented in DESIGN.md, playing the role of the synthetic benchmark the
// authors published for the same reason.
package workload

import (
	"fmt"

	"repro/internal/rng"
)

// DataDist enumerates the column-value distributions in the synthetic
// datasets.
type DataDist int

// Data distributions, roughly ordered from benign to adversarial for
// error estimation.
const (
	// Gaussian: well-behaved measurements; everything works.
	Gaussian DataDist = iota
	// Uniform: bounded, light tails.
	Uniform
	// Exponential: mild skew.
	Exponential
	// LogNormalMild: session-time-like skew (σ=1).
	LogNormalMild
	// LogNormalHeavy: strong skew (σ=2.5); strains CLT normality at
	// moderate n.
	LogNormalHeavy
	// ParetoTail: α=1.5 — infinite variance; breaks CLT/bootstrap for
	// tail-sensitive aggregates and slows convergence for means.
	ParetoTail
	// ParetoExtreme: α=1.05 — barely integrable; MAX/MIN estimation is
	// hopeless, mean estimation unreliable.
	ParetoExtreme
	// Spiky: a constant baseline contaminated by rare huge outliers; the
	// classic silent killer for resampling-based error bars because most
	// samples contain no outlier at all.
	Spiky
	// Bimodal: a two-component Gaussian mixture; fine for means, hard for
	// quantiles near the gap.
	Bimodal
)

func (d DataDist) String() string {
	switch d {
	case Gaussian:
		return "gaussian"
	case Uniform:
		return "uniform"
	case Exponential:
		return "exponential"
	case LogNormalMild:
		return "lognormal-mild"
	case LogNormalHeavy:
		return "lognormal-heavy"
	case ParetoTail:
		return "pareto-1.5"
	case ParetoExtreme:
		return "pareto-1.05"
	case Spiky:
		return "spiky"
	case Bimodal:
		return "bimodal"
	default:
		return fmt.Sprintf("DataDist(%d)", int(d))
	}
}

// GenerateColumn produces n values from the distribution.
func GenerateColumn(src *rng.Source, d DataDist, n int) []float64 {
	xs := make([]float64, n)
	switch d {
	case Gaussian:
		for i := range xs {
			xs[i] = 100 + 15*src.NormFloat64()
		}
	case Uniform:
		// Integer-valued, like production id/bucket columns: atoms at the
		// boundary mean MIN/MAX often succeed (the sample extreme IS the
		// population extreme), matching the paper's mixed MIN/MAX record.
		for i := range xs {
			xs[i] = float64(src.Intn(1000))
		}
	case Exponential:
		// Whole seconds, floor-discretized: a fat atom at 0.
		for i := range xs {
			xs[i] = float64(int(30 * src.ExpFloat64()))
		}
	case LogNormalMild:
		for i := range xs {
			xs[i] = src.LogNormal(3, 1)
		}
	case LogNormalHeavy:
		for i := range xs {
			xs[i] = src.LogNormal(2, 2.5)
		}
	case ParetoTail:
		for i := range xs {
			xs[i] = src.Pareto(1, 1.5)
		}
	case ParetoExtreme:
		for i := range xs {
			xs[i] = src.Pareto(1, 1.05)
		}
	case Spiky:
		for i := range xs {
			if src.Float64() < 1e-4 {
				xs[i] = 1e7 * (1 + src.Float64())
			} else {
				xs[i] = 10 + src.NormFloat64()
			}
		}
	case Bimodal:
		for i := range xs {
			if src.Float64() < 0.5 {
				xs[i] = 20 + 3*src.NormFloat64()
			} else {
				xs[i] = 80 + 3*src.NormFloat64()
			}
		}
	default:
		panic(fmt.Sprintf("workload: unknown distribution %v", d))
	}
	return xs
}

// benignDists are shapes on which estimation typically succeeds.
var benignDists = []DataDist{Gaussian, Uniform, Exponential, LogNormalMild, Bimodal}

// adversarialDists are shapes on which estimation often fails.
var adversarialDists = []DataDist{LogNormalHeavy, ParetoTail, ParetoExtreme, Spiky}

// pickDist draws a distribution: adversarial with probability pAdversarial,
// benign otherwise.
func pickDist(src *rng.Source, pAdversarial float64) DataDist {
	if src.Float64() < pAdversarial {
		return adversarialDists[src.Intn(len(adversarialDists))]
	}
	return benignDists[src.Intn(len(benignDists))]
}
