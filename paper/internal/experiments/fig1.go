package experiments

import (
	"io"
	"math"

	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/paper/internal/protocol"
)

// Fig1RelErrs are the target relative errors of Fig. 1's x-axis.
var Fig1RelErrs = []float64{0.32, 0.1, 0.032, 0.01}

// Fig1Techniques orders the compared techniques.
var Fig1Techniques = []string{"clt-closed-form", "bootstrap", "hoeffding"}

// Fig1Result reports, per technique and target relative error, the sample
// size the technique's error estimate asks for (mean over queries with
// .01/.99 quantile bars) — Fig. 1.
type Fig1Result struct {
	RelErrs []float64
	Sizes   map[string][]SizeStat
}

// Fig1 reproduces Fig. 1: "sample sizes suggested by different error
// estimation techniques for achieving different levels of relative error",
// over a Conviva-style workload of AVG queries. The expected shape: CLT
// and bootstrap track each other closely, Hoeffding demands samples 1–2
// orders of magnitude larger.
func Fig1(cfg Config) *Fig1Result {
	res := &Fig1Result{RelErrs: Fig1RelErrs, Sizes: map[string][]SizeStat{}}
	perTech := map[string][][]float64{}
	for _, t := range Fig1Techniques {
		perTech[t] = make([][]float64, len(Fig1RelErrs))
	}

	const alpha = estimator.ConfidenceLevel
	z := stats.StdNormalQuantile(0.5 + alpha/2)
	hoeff := math.Sqrt(math.Log(2/(1-alpha)) / 2)

	dists := []workload.DataDist{
		workload.Gaussian, workload.Uniform, workload.Exponential,
		workload.LogNormalMild, workload.Bimodal,
	}
	for qi := 0; qi < cfg.QueriesPerSet; qi++ {
		src := cfg.stream("fig1", qi)
		pop := workload.GenerateColumn(src, dists[qi%len(dists)], cfg.PopulationSize)
		var m stats.Moments
		m.AddAll(pop)
		mu, sigma := m.Mean(), m.Stddev()
		if mu == 0 {
			continue
		}
		rangeWidth := m.Max() - m.Min()

		// Bootstrap pilot: measure the bootstrap CI half-width at a pilot
		// size, then extrapolate by the 1/√n law the interval obeys.
		pilotN := 1000
		pilot := protocol.WithReplacement(src, pop, pilotN)
		pilotIv, err := (estimator.Bootstrap{K: cfg.BootstrapK}).Interval(
			src, pilot, estimator.Query{Kind: estimator.Avg}, alpha)
		if err != nil {
			continue
		}

		for ei, eps := range Fig1RelErrs {
			target := eps * math.Abs(mu)
			clt := sq(z * sigma / target)
			boot := float64(pilotN) * sq(pilotIv.HalfWidth/target)
			hoeffN := sq(rangeWidth * hoeff / target)
			perTech["clt-closed-form"][ei] = append(perTech["clt-closed-form"][ei], clt)
			perTech["bootstrap"][ei] = append(perTech["bootstrap"][ei], boot)
			perTech["hoeffding"][ei] = append(perTech["hoeffding"][ei], hoeffN)
		}
	}
	for _, t := range Fig1Techniques {
		out := make([]SizeStat, len(Fig1RelErrs))
		for ei := range Fig1RelErrs {
			out[ei] = summarize(perTech[t][ei])
		}
		res.Sizes[t] = out
	}
	return res
}

func sq(x float64) float64 { return x * x }

// HoeffdingInflation returns the mean factor by which Hoeffding's
// suggested sample size exceeds the CLT's at the given target index — the
// paper's "1–2 orders of magnitude" claim.
func (r *Fig1Result) HoeffdingInflation(relErrIdx int) float64 {
	clt := r.Sizes["clt-closed-form"][relErrIdx].Mean
	h := r.Sizes["hoeffding"][relErrIdx].Mean
	if clt == 0 {
		return math.NaN()
	}
	return h / clt
}

// Render writes the figure as a text table.
func (r *Fig1Result) Render(w io.Writer) {
	fprintf(w, "Fig. 1 — sample size required per target relative error (mean [q01, q99])\n")
	fprintf(w, "%-18s", "technique")
	for _, e := range r.RelErrs {
		fprintf(w, " | rel.err %-7.3g", e)
	}
	fprintf(w, "\n")
	for _, t := range Fig1Techniques {
		fprintf(w, "%-18s", t)
		for _, s := range r.Sizes[t] {
			fprintf(w, " | %-15.3g", s.Mean)
		}
		fprintf(w, "\n")
	}
	fprintf(w, "Hoeffding/CLT inflation at rel.err 0.01: %.0fx\n", r.HoeffdingInflation(3))
}

var _ = rng.New // keep the deterministic-stream dependency explicit
