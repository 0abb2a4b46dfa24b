// Sessions reproduces the paper's running example (§2.1) at the
// statistical API level: estimate AVG(Time) of NYC sessions from a sample,
// compare every error-estimation technique against the ground-truth
// confidence interval, and show the diagnostic telling them apart — for
// both a well-behaved aggregate (AVG) and a fragile one (MAX).
package main

import (
	"context"
	"fmt"

	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/paper/internal/protocol"
)

func main() {
	src := rng.New(2016)

	// The "Sessions WHERE City = 'NYC'" population: session times in
	// seconds, lognormal like real session-length data.
	population := make([]float64, 500_000)
	for i := range population {
		population[i] = src.LogNormal(4, 0.7)
	}
	const n = 100_000
	s := protocol.WithReplacement(src, population, n)

	for _, q := range []estimator.Query{
		{Kind: estimator.Avg},
		{Kind: estimator.Max},
	} {
		fmt.Printf("== θ = %s(Time), sample n = %d ==\n", q.Name(), n)
		truth := protocol.ComputeTruth(src, population, q, n, 200, estimator.ConfidenceLevel)
		fmt.Printf("θ(D) = %.4g; true 95%% interval half-width = %.4g\n",
			truth.Answer, truth.Interval.HalfWidth)

		techniques := []estimator.Estimator{
			estimator.ClosedForm{},
			estimator.Bootstrap{K: 100},
			protocol.BlockJackknife{Blocks: 50},
			protocol.LargeDeviation{Bound: protocol.Hoeffding},
			protocol.LargeDeviation{Bound: protocol.Bernstein},
		}
		for _, est := range techniques {
			iv, err := est.Interval(src, s, q, estimator.ConfidenceLevel)
			if err != nil {
				fmt.Printf("  %-28s not applicable (%v)\n", est.Name(), err)
				continue
			}
			delta := protocol.Delta(iv, truth.Interval)
			verdict := "about right"
			switch {
			case delta > 0.2:
				verdict = "PESSIMISTIC (too wide)"
			case delta < -0.2:
				verdict = "OPTIMISTIC (too narrow!)"
			}
			fmt.Printf("  %-28s %s  δ=%+.2f  %s\n", est.Name(), iv, delta, verdict)

			// Would the runtime diagnostic have caught this?
			theta := func() float64 { return q.Eval(s) }
			dres, err := diagnostic.Run(context.Background(), src, s, theta, q, est, protocol.DiagnosticConfig(n, diagnostic.P))
			if err == nil {
				mark := "diagnostic: TRUSTED"
				if !dres.OK {
					mark = "diagnostic: REJECTED — " + dres.Reason
				}
				fmt.Printf("  %-28s %s\n", "", mark)
			}
		}
		fmt.Println()
	}
}
