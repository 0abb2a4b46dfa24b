package exec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/table"
)

// TestVerdictFirstSkipsOnlyRejectedBootstrap runs the same plans with and
// without Options.VerdictFirst at 1, 2 and 8 workers, and asserts the flag removes the bootstrap of rejected aggregates
// and nothing else: values and verdicts are identical, accepted aggregates
// keep bit-identical resample estimates, and the counters drop by exactly
// what bootstrapEstimates charges for the aggregates that were skipped. An
// aggregate with a closed form (AVG) is resampled by neither plan.
func TestVerdictFirstSkipsOnlyRejectedBootstrap(t *testing.T) {
	const n, k = 24000, 30
	src := rng.New(4242)
	g := make(table.Float64Col, n)
	p := make(table.Float64Col, n)
	city := make(table.StringCol, n)
	names := []string{"NYC", "SF", "LA"}
	for i := 0; i < n; i++ {
		g[i] = 60 + 20*src.NormFloat64()
		p[i] = src.Pareto(1, 1.05)
		city[i] = names[src.Intn(len(names))]
	}
	st := &StoredTable{
		Data: table.MustNew(table.Schema{
			{Name: "g", Type: table.Float64},
			{Name: "p", Type: table.Float64},
			{Name: "City", Type: table.String},
		}, g, p, city),
		PopRows: 10 * n,
	}
	ctx := context.Background()
	var accepted, rejected int
	for _, q := range []string{
		"SELECT PERCENTILE(g, 0.5), MAX(p), AVG(g) FROM T",
		"SELECT City, PERCENTILE(g, 0.5), MAX(p) FROM T WHERE g > 30 GROUP BY City",
	} {
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s workers=%d", q, workers)
			cfg := Config{Workers: workers, Seed: 7}
			opt := plan.DefaultOptions(n)
			opt.BootstrapK = k
			keep, err := Run(ctx, mustPlan(t, q, opt), st, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			opt.VerdictFirst = true
			skip, err := Run(ctx, mustPlan(t, q, opt), st, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}

			want := keep.Counters
			for gi, kg := range keep.Groups {
				for ai, ka := range kg.Aggs {
					sa := skip.Groups[gi].Aggs[ai]
					if sa.Value != ka.Value || sa.Diag.OK != ka.Diag.OK || sa.Diag.Reason != ka.Diag.Reason {
						t.Fatalf("%s group %q agg %d: value/verdict changed: %v %+v vs %v %+v",
							label, kg.Key, ai, sa.Value, sa.Diag, ka.Value, ka.Diag)
					}
					wantK := k
					if ka.Query.ClosedFormApplicable() {
						wantK = 0
					}
					if len(ka.Bootstrap) != wantK {
						t.Fatalf("%s group %q agg %d: plain plan ran %d resamples, want %d",
							label, kg.Key, ai, len(ka.Bootstrap), wantK)
					}
					if ka.Diag.OK {
						accepted++
						if len(sa.Bootstrap) != wantK {
							t.Fatalf("%s group %q agg %d: accepted aggregate lost its bootstrap", label, kg.Key, ai)
						}
						for r := range ka.Bootstrap {
							if sa.Bootstrap[r] != ka.Bootstrap[r] {
								t.Fatalf("%s group %q agg %d resample %d: %v != %v",
									label, kg.Key, ai, r, sa.Bootstrap[r], ka.Bootstrap[r])
							}
						}
						continue
					}
					rejected++
					if sa.Bootstrap != nil {
						t.Errorf("%s group %q agg %d: rejected aggregate was still bootstrapped", label, kg.Key, ai)
					}
					if wantK == 0 {
						continue
					}
					_, c, err := bootstrapEstimates(ctx, ka.Values, ka.Query, k, cfg, kg.Key, ai)
					if err != nil {
						t.Fatal(err)
					}
					want.WeightDraws -= c.WeightDraws
					want.Tasks -= c.Tasks
				}
			}
			if skip.Counters != want {
				t.Errorf("%s: counters %+v, want %+v", label, skip.Counters, want)
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("queries lost their coverage: %d accepted aggregates, %d rejected", accepted, rejected)
	}
}
