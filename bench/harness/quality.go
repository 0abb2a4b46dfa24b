package harness

import (
	"math"
	"sync"
)

// quality is the answer-quality summary of one pass. Coverage, relative
// error and interval width are over the approximately-answered aggregates —
// those the engine answered from the sample with an error bar — because an
// exact fallback answer equals the truth by construction and would only
// dilute them.
type quality struct {
	aggregates   int     // every (distinct query, group) aggregate
	approximate  int     // those answered from the sample with an error bar
	coverage     float64 // share of the approximate whose [lo,hi] holds the truth
	relErrP50    float64 // median |estimate-truth| / |truth| over the approximate
	ciWidthP50   float64 // median reported rel_err over the approximate
	fallbackRate float64 // exact-after-reject aggregates / all aggregates
}

// exactTolerance is how far an exact-fallback answer may sit from the
// oracle, relative to the truth: the two sum in different orders.
const exactTolerance = 1e-6

// nominalCoverage is the engine's default confidence level.
const nominalCoverage = 0.95

// coverageFloor is the lower edge of the band coverage must stay in: four
// binomial standard deviations below nominal for n/4 independent trials.
// Every query of a run reads the same sample, so their errors are
// correlated and far fewer than n trials are independent; the band is a
// gross-error gate (a broken interval collapses coverage), not a
// calibration test — internal/core's calibration suites are that.
func coverageFloor(n int) float64 {
	return nominalCoverage - 4*math.Sqrt(nominalCoverage*(1-nominalCoverage)/(float64(n)/4))
}

// assess compares one pass's answers with the plain-loop oracle: exact
// answers must equal the truth, and approximate ones feed the quality
// metrics. It records gate failures on rep.
func assess(rep *Report, cfg RunConfig, prep *prepared, pr passResult, pass int) (quality, error) {
	w := cfg.Workload
	// A query repeated verbatim in several slots (dashboard_repeat's panels)
	// has one answer; it counts once.
	var distinct []int
	seen := map[string]bool{}
	queries := make([]Query, len(prep.slots))
	for i, s := range prep.slots {
		queries[i] = w.QueryFor(s, pass)
		if text := queries[i].SQL(); pr.results[i] != nil && !seen[text] {
			seen[text] = true
			distinct = append(distinct, i)
		}
	}
	truths := make([]map[string]float64, len(prep.slots))
	errs := make([]error, len(prep.slots))
	var wg sync.WaitGroup
	const oracleWorkers = 2
	for k := 0; k < oracleWorkers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := k; j < len(distinct); j += oracleWorkers {
				i := distinct[j]
				truths[i], errs[i] = prep.data.Truth(queries[i])
			}
		}(k)
	}
	wg.Wait()

	var q quality
	var covered, fellBack int
	var relErrs, widths []float64
	for _, i := range distinct {
		if errs[i] != nil {
			return q, errs[i]
		}
		sql := queries[i].SQL()
		if len(pr.results[i].Groups) == 0 {
			rep.problemf("slot %d (%s): empty answer", i, sql)
		}
		for _, g := range pr.results[i].Groups {
			truth, ok := truths[i][g.Key]
			if !ok {
				rep.problemf("slot %d (%s): group %q is not in the data", i, sql, g.Key)
				continue
			}
			q.aggregates++
			if g.Exact {
				if g.Verdict == "reject" {
					fellBack++
				}
				if math.Abs(g.Est-truth) > exactTolerance*math.Max(math.Abs(truth), 1) {
					rep.problemf("slot %d (%s) group %q: exact answer %v, oracle %v",
						i, sql, g.Key, g.Est, truth)
				}
				continue
			}
			if math.IsNaN(g.Lo) || math.IsNaN(g.Hi) {
				continue // no error bar was produced; nothing to cover
			}
			q.approximate++
			if g.Lo <= truth && truth <= g.Hi {
				covered++
			}
			if truth != 0 {
				relErrs = append(relErrs, math.Abs(g.Est-truth)/math.Abs(truth))
			}
			if !math.IsNaN(g.RelErr) && !math.IsInf(g.RelErr, 0) {
				widths = append(widths, g.RelErr)
			}
		}
	}
	// The quality metrics are only as good as the number of aggregates
	// behind them: a workload whose approximate answers dwindle (a change
	// that makes the diagnostic reject everything, say) fails here instead
	// of reporting a median of three values.
	if need := w.MinApproximate; !cfg.Quick && q.approximate < need {
		rep.problemf("only %d approximately-answered aggregates, want at least %d", q.approximate, need)
	}
	if q.aggregates > 0 {
		q.fallbackRate = float64(fellBack) / float64(q.aggregates)
	}
	if q.approximate == 0 {
		return q, nil
	}
	q.coverage = float64(covered) / float64(q.approximate)
	q.relErrP50 = Median(relErrs)
	q.ciWidthP50 = Median(widths)
	if floor := coverageFloor(q.approximate); q.coverage < floor {
		rep.problemf("coverage %.4f over %d approximate aggregates is below the band floor %.4f",
			q.coverage, q.approximate, floor)
	}
	return q, nil
}
