package experiments

import (
	"io"
	"sort"

	"repro/internal/workload"
	"repro/paper/internal/cluster"
)

// systemShape derives a production-scale QueryShape for one trace query:
// samples of 2–20 GB (the paper runs "a cached random sample of at most
// 20 GB"), row widths and fan-outs from the trace metadata.
func systemShape(cfg Config, spec workload.QuerySpec, consolidated, pushed bool) cluster.QueryShape {
	src := cfg.stream("shape/"+spec.Trace.String(), spec.ID)
	sampleMB := 2000 + 18000*src.Float64()
	rows := int64(sampleMB * 1e6 / float64(spec.BytesPerRow))
	k := 100
	if spec.ClosedFormOK() {
		k = 0
	}
	diagSizes := []int{
		int(50e6 / float64(spec.BytesPerRow)),
		int(100e6 / float64(spec.BytesPerRow)),
		int(200e6 / float64(spec.BytesPerRow)),
	}
	return cluster.QueryShape{
		SampleMB:     sampleMB,
		SampleRows:   rows,
		Selectivity:  0.05 + 0.95*src.Float64(),
		BootstrapK:   k,
		DiagSizes:    diagSizes,
		DiagP:        cfg.DiagP,
		ClosedForm:   spec.ClosedFormOK(),
		Consolidated: consolidated,
		Pushdown:     pushed,
		Fanout:       spec.GroupFanout,
	}
}

// qsets returns the Conviva QSet-1 and QSet-2 used by the §7 experiments.
func qsets(cfg Config) (qset1, qset2 []workload.QuerySpec) {
	// The systems experiments never touch the populations, so generate
	// tiny ones.
	return generateQSets(workload.Conviva, cfg.QueriesPerSet, 64, cfg.Seed)
}

// PipelineResult holds per-query latency breakdowns for both query sets
// (Figs. 7 and 9).
type PipelineResult struct {
	Label        string
	QSet1, QSet2 []cluster.Breakdown // sorted by total latency
}

// Fig7 reproduces Fig. 7: per-query end-to-end response time of the naive
// §5.2 pipeline (UNION ALL rewrite, per-subquery scans) on the default
// cluster. Expected shape: tens of seconds for QSet-1, minutes for
// QSet-2, diagnostics dominating.
func Fig7(cfg Config) *PipelineResult {
	cl := mustCluster(cluster.Default())
	return runPipelines(cfg, cl, false, false, "Fig. 7 — naive pipeline")
}

// Fig9 reproduces Fig. 9: the fully optimized pipeline (scan
// consolidation + pushdown + tuned physical plan). Expected shape: a few
// seconds per query for both sets.
func Fig9(cfg Config) *PipelineResult {
	cl := mustCluster(tunedCluster())
	return runPipelines(cfg, cl, true, true, "Fig. 9 — optimized pipeline")
}

func mustCluster(cfg cluster.Config) *cluster.Cluster {
	cl, err := cluster.New(cfg)
	if err != nil {
		panic(err)
	}
	return cl
}

func runPipelines(cfg Config, cl *cluster.Cluster, consolidated, pushed bool, label string) *PipelineResult {
	q1, q2 := qsets(cfg)
	res := &PipelineResult{Label: label}
	for i, spec := range q1 {
		src := cfg.stream("pipeline1", i)
		res.QSet1 = append(res.QSet1,
			cl.SimulateBreakdown(src, systemShape(cfg, spec, consolidated, pushed)))
	}
	for i, spec := range q2 {
		src := cfg.stream("pipeline2", i)
		res.QSet2 = append(res.QSet2,
			cl.SimulateBreakdown(src, systemShape(cfg, spec, consolidated, pushed)))
	}
	sortByTotal(res.QSet1)
	sortByTotal(res.QSet2)
	return res
}

func sortByTotal(bs []cluster.Breakdown) {
	sort.Slice(bs, func(i, j int) bool { return bs[i].Total() < bs[j].Total() })
}

// MaxTotal returns the slowest query's latency in the set.
func MaxTotal(bs []cluster.Breakdown) float64 {
	m := 0.0
	for _, b := range bs {
		if b.Total() > m {
			m = b.Total()
		}
	}
	return m
}

// MedianTotal returns the median end-to-end latency of the set.
func MedianTotal(bs []cluster.Breakdown) float64 {
	if len(bs) == 0 {
		return 0
	}
	totals := make([]float64, len(bs))
	for i, b := range bs {
		totals[i] = b.Total()
	}
	sort.Float64s(totals)
	return totals[len(totals)/2]
}

// Render writes per-query stacked-bar rows.
func (r *PipelineResult) Render(w io.Writer) {
	fprintf(w, "%s — per-query latency (s), sorted\n", r.Label)
	for name, set := range map[string][]cluster.Breakdown{"QSet-1": r.QSet1, "QSet-2": r.QSet2} {
		fprintf(w, "%s: median %.2fs, max %.2fs\n", name, MedianTotal(set), MaxTotal(set))
		fprintf(w, "  %-6s %-12s %-12s %-12s %-10s\n", "query", "exec", "error-est", "diagnostics", "total")
		for i, b := range set {
			if len(set) > 12 && i%(len(set)/12+1) != 0 {
				continue // subsample rows for readability
			}
			fprintf(w, "  q%-5d %-12.3f %-12.3f %-12.3f %-10.3f\n",
				i, b.QuerySec, b.ErrorSec, b.DiagSec, b.Total())
		}
	}
}

// SpeedupResult holds per-query speedup distributions for error
// estimation and diagnostics on both query sets (Figs. 8(a)/(b) and
// 8(e)/(f)).
type SpeedupResult struct {
	Label string
	// ErrQ1/DiagQ1/ErrQ2/DiagQ2 are raw per-query speedup factors.
	ErrQ1, DiagQ1, ErrQ2, DiagQ2 []float64
	// TotalQ1/TotalQ2 are end-to-end per-query speedup factors.
	TotalQ1, TotalQ2 []float64
}

// Fig8ab reproduces Figs. 8(a) and 8(b): the CDF of per-query speedups
// delivered by the query-plan optimizations (scan consolidation +
// operator pushdown) relative to the naive baseline, on the same default
// cluster. Paper shape: QSet-1 error estimation 1–2x and diagnostics
// 5–20x; QSet-2 error estimation 20–60x and diagnostics 20–100x.
func Fig8ab(cfg Config) *SpeedupResult {
	cl := mustCluster(cluster.Default())
	q1, q2 := qsets(cfg)
	res := &SpeedupResult{Label: "Fig. 8(a)/(b) — query plan optimization speedups"}
	fill := func(set []workload.QuerySpec, stream string, errOut, diagOut, totalOut *[]float64) {
		for i, spec := range set {
			src := cfg.stream(stream, i)
			naive := cl.SimulateBreakdown(src, systemShape(cfg, spec, false, false))
			opt := cl.SimulateBreakdown(src, systemShape(cfg, spec, true, true))
			*errOut = append(*errOut, ratio(naive.ErrorSec, opt.ErrorSec))
			*diagOut = append(*diagOut, ratio(naive.DiagSec, opt.DiagSec))
			*totalOut = append(*totalOut, ratio(naive.Total(), opt.Total()))
		}
	}
	fill(q1, "fig8ab-1", &res.ErrQ1, &res.DiagQ1, &res.TotalQ1)
	fill(q2, "fig8ab-2", &res.ErrQ2, &res.DiagQ2, &res.TotalQ2)
	return res
}

// Fig8ef reproduces Figs. 8(e) and 8(f): speedups from tuning the physical
// plan (bounded parallelism, 35% input cache, straggler mitigation)
// relative to the plan-optimized but untuned configuration.
func Fig8ef(cfg Config) *SpeedupResult {
	untuned := mustCluster(untunedCluster())
	tuned := mustCluster(tunedCluster())
	q1, q2 := qsets(cfg)
	res := &SpeedupResult{Label: "Fig. 8(e)/(f) — physical plan tuning speedups"}
	fill := func(set []workload.QuerySpec, stream string, errOut, diagOut, totalOut *[]float64) {
		for i, spec := range set {
			src1 := cfg.stream(stream, i)
			src2 := cfg.stream(stream+"/tuned", i)
			shape := systemShape(cfg, spec, true, true)
			before := untuned.SimulateBreakdown(src1, shape)
			after := tuned.SimulateBreakdown(src2, shape)
			*errOut = append(*errOut, ratio(before.ErrorSec, after.ErrorSec))
			*diagOut = append(*diagOut, ratio(before.DiagSec, after.DiagSec))
			*totalOut = append(*totalOut, ratio(before.Total(), after.Total()))
		}
	}
	fill(q1, "fig8ef-1", &res.ErrQ1, &res.DiagQ1, &res.TotalQ1)
	fill(q2, "fig8ef-2", &res.ErrQ2, &res.DiagQ2, &res.TotalQ2)
	return res
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		if a <= 0 {
			return 1
		}
		return a / 1e-9
	}
	return a / b
}

// Median returns the median of xs (0 when empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// Render writes speedup CDFs as quantile tables.
func (r *SpeedupResult) Render(w io.Writer) {
	fprintf(w, "%s\n", r.Label)
	rows := []struct {
		name string
		xs   []float64
	}{
		{"QSet-1 error estimation", r.ErrQ1},
		{"QSet-1 diagnostics", r.DiagQ1},
		{"QSet-1 end-to-end", r.TotalQ1},
		{"QSet-2 error estimation", r.ErrQ2},
		{"QSet-2 diagnostics", r.DiagQ2},
		{"QSet-2 end-to-end", r.TotalQ2},
	}
	fprintf(w, "%-26s %-10s %-10s %-10s\n", "component", "p10", "median", "p90")
	for _, row := range rows {
		cdf := cdfPoints(row.xs, 10)
		if len(cdf) == 0 {
			continue
		}
		fprintf(w, "%-26s %-10.1f %-10.1f %-10.1f\n",
			row.name, cdf[0][0], Median(row.xs), cdf[8][0])
	}
}

// SweepResult is a 1-D parameter sweep (Figs. 8(c) and 8(d)).
type SweepResult struct {
	Label string
	X     []float64
	Times []SizeStat // simulated total latency at each x
}

// OptimumX returns the x with the lowest mean latency.
func (r *SweepResult) OptimumX() float64 {
	best := 0
	for i := range r.Times {
		if r.Times[i].Mean < r.Times[best].Mean {
			best = i
		}
	}
	return r.X[best]
}

// Fig8c reproduces Fig. 8(c): end-to-end latency versus the number of
// machines, averaged over both query sets, with .01/.99 quantile bars.
// Expected shape: U-shaped with an interior optimum (paper: ~20 machines).
func Fig8c(cfg Config) *SweepResult {
	machines := []float64{5, 10, 20, 40, 60, 80, 100}
	res := &SweepResult{Label: "Fig. 8(c) — latency vs degree of parallelism", X: machines}
	q1, q2 := qsets(cfg)
	all := append(append([]workload.QuerySpec{}, q1...), q2...)
	for _, m := range machines {
		ccfg := tunedCluster()
		ccfg.Machines = int(m)
		cl := mustCluster(ccfg)
		var totals []float64
		for i, spec := range all {
			src := cfg.stream("fig8c", i)
			totals = append(totals,
				cl.SimulateBreakdown(src, systemShape(cfg, spec, true, true)).Total())
		}
		res.Times = append(res.Times, summarize(totals))
	}
	return res
}

// Fig8d reproduces Fig. 8(d): end-to-end latency versus the fraction of
// samples cached. Expected shape: U-shaped with the optimum in the
// interior (paper: 30–40%).
func Fig8d(cfg Config) *SweepResult {
	fractions := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	res := &SweepResult{Label: "Fig. 8(d) — latency vs fraction of samples cached", X: fractions}
	q1, q2 := qsets(cfg)
	all := append(append([]workload.QuerySpec{}, q1...), q2...)
	for _, f := range fractions {
		ccfg := tunedCluster()
		ccfg.CacheFraction = f
		cl := mustCluster(ccfg)
		var totals []float64
		for i, spec := range all {
			src := cfg.stream("fig8d", i)
			totals = append(totals,
				cl.SimulateBreakdown(src, systemShape(cfg, spec, true, true)).Total())
		}
		res.Times = append(res.Times, summarize(totals))
	}
	return res
}

// Render writes the sweep as a table.
func (r *SweepResult) Render(w io.Writer) {
	fprintf(w, "%s\n", r.Label)
	fprintf(w, "%-10s %-12s %-12s %-12s\n", "x", "mean (s)", "q01 (s)", "q99 (s)")
	for i, x := range r.X {
		s := r.Times[i]
		fprintf(w, "%-10.3g %-12.3f %-12.3f %-12.3f\n", x, s.Mean, s.Q01, s.Q99)
	}
	fprintf(w, "optimum at x = %g\n", r.OptimumX())
}
