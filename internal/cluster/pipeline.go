package cluster

import "repro/internal/rng"

// QueryShape summarizes one query pipeline for the cost model: the sample
// it scans, the estimation work it carries, and which §5/§6 optimizations
// its plan uses. The benchmark harness builds a QueryShape per trace query
// and asks the cluster for the simulated latency of each pipeline
// component (query execution / error estimation / diagnostics), matching
// the stacked bars of Figs. 7 and 9.
type QueryShape struct {
	// SampleMB and SampleRows size the stored sample the query runs on.
	SampleMB   float64
	SampleRows int64
	// Selectivity is the fraction of rows surviving the WHERE clause.
	Selectivity float64
	// BootstrapK is the number of bootstrap resamples (0 = closed forms
	// only need the one pass).
	BootstrapK int
	// DiagSizes are the diagnostic subsample sizes in rows; DiagP the
	// subsample count per size.
	DiagSizes []int
	DiagP     int
	// ClosedForm selects ξ for the diagnostic: closed form (one error
	// estimate per subsample) versus bootstrap (K+1 evaluations per
	// subsample).
	ClosedForm bool
	// Consolidated and Pushdown select the §5.3.1 and §5.3.2 rewrites;
	// both false is the §5.2 UNION ALL plan. The engine runs only the
	// plan with both set; Figs. 7–9 compare it with the others here.
	Consolidated bool
	Pushdown     bool
	// Fanout is the GROUP BY result width.
	Fanout int
}

func (s QueryShape) bytesPerRowMB() float64 {
	if s.SampleRows == 0 {
		return 0
	}
	return s.SampleMB / float64(s.SampleRows)
}

func (s QueryShape) filteredRows() float64 {
	sel := s.Selectivity
	if sel <= 0 || sel > 1 {
		sel = 1
	}
	return float64(s.SampleRows) * sel
}

// QueryWorkload is the base approximate-query component: one scan of the
// sample computing the plain aggregate.
func (s QueryShape) QueryWorkload() Workload {
	return Workload{Subqueries: []Subquery{{
		Count:  1,
		MB:     s.SampleMB,
		Rows:   s.SampleRows,
		RowOps: 1,
		Fanout: s.Fanout,
	}}}
}

// ErrorEstimationWorkload is the additional work of producing error bars.
// Closed forms piggyback on the base scan (one extra row-op per row). The
// bootstrap costs K resample aggregations: as K separate full-scan
// subqueries in the naive plan, or as in-scan weighted aggregation plus
// weight draws in the consolidated plan.
func (s QueryShape) ErrorEstimationWorkload() Workload {
	if s.BootstrapK <= 0 {
		// Closed form: variance accumulators in the same scan.
		return Workload{ExtraCPURowOps: s.filteredRows()}
	}
	k := float64(s.BootstrapK)
	if !s.Consolidated {
		rowOps := 2.0 // draw + weighted aggregate per row
		return Workload{Subqueries: []Subquery{{
			Count:  s.BootstrapK,
			MB:     s.SampleMB,
			Rows:   s.SampleRows,
			RowOps: rowOps,
			Fanout: s.Fanout,
		}}}
	}
	weightRows := s.filteredRows()
	if !s.Pushdown {
		// Weights drawn before the filter: every scanned row pays.
		weightRows = float64(s.SampleRows)
	}
	return Workload{
		ExtraCPURowOps:   k * s.filteredRows(),
		ExtraWeightDraws: k * weightRows,
		// Each task of the consolidated scan ships K extra resample
		// partials to the collector.
		CollectorMB:   s.SampleMB,
		CollectorCols: k,
	}
}

// DiagnosticsWorkload is the additional work of running Algorithm 1. The
// naive plan executes every subsample evaluation as its own subquery
// (tens of thousands of small scans); the consolidated plan computes the
// same mathematics inside the single pass.
func (s QueryShape) DiagnosticsWorkload() Workload {
	if s.DiagP <= 0 || len(s.DiagSizes) == 0 {
		return Workload{}
	}
	perSubsampleEvals := 1 // θ once per subsample (closed-form ξ folds in)
	if !s.ClosedForm {
		k := s.BootstrapK
		if k <= 0 {
			k = 100
		}
		perSubsampleEvals = k + 1
	}
	if !s.Consolidated {
		var subs []Subquery
		for _, b := range s.DiagSizes {
			subs = append(subs, Subquery{
				Count:  s.DiagP * perSubsampleEvals,
				MB:     float64(b) * s.bytesPerRowMB(),
				Rows:   int64(b),
				RowOps: 2,
			})
		}
		return Workload{Subqueries: subs}
	}
	var rowOps, draws float64
	for _, b := range s.DiagSizes {
		rowOps += float64(s.DiagP) * float64(b) * float64(perSubsampleEvals)
		if !s.ClosedForm {
			draws += float64(s.DiagP) * float64(b) * float64(perSubsampleEvals-1)
		}
	}
	return Workload{
		ExtraCPURowOps:   rowOps,
		ExtraWeightDraws: draws,
		// Each subsample evaluation delivers one result to the collector;
		// subsamples are contiguous row ranges, so their partials come
		// from the few tasks holding them rather than from every task.
		CollectorPartials: float64(len(s.DiagSizes) * s.DiagP * perSubsampleEvals),
	}
}

// ConsolidatedIntermediateMB estimates the per-machine in-flight state of
// the consolidated scan: each running task holds its partition's K weight
// columns (the diagnostic's subsample weights stream block-by-block and
// never accumulate). The 2x factor covers runtime object overhead and
// shuffle/serialization buffers beyond the raw 8-byte weights (the real
// system "temporarily increases the overall amount of intermediate data",
// §5.3.2). This per-machine demand competes with the input cache for RAM —
// the Fig. 8(d) tradeoff.
func (cl *Cluster) ConsolidatedIntermediateMB(s QueryShape) float64 {
	if !s.Consolidated || s.BootstrapK <= 0 || s.SampleRows <= 0 {
		return 0
	}
	bytesPerRow := s.SampleMB * 1e6 / float64(s.SampleRows)
	if bytesPerRow <= 0 {
		return 0
	}
	partitionRows := cl.cfg.TargetPartitionMB * 1e6 / bytesPerRow
	return float64(cl.cfg.SlotsPerMachine) * partitionRows *
		float64(s.BootstrapK) * 8 * 2 / 1e6
}

// SimulateBreakdown costs the three pipeline components of one query. The
// consolidated plan's intermediate weight state is charged to the base
// scan, since that is the pass that materializes it.
func (cl *Cluster) SimulateBreakdown(src *rng.Source, s QueryShape) Breakdown {
	qw := s.QueryWorkload()
	if s.Consolidated && len(qw.Subqueries) > 0 {
		qw.Subqueries[0].IntermediateMBPerMachine = cl.ConsolidatedIntermediateMB(s)
	}
	return Breakdown{
		QuerySec: cl.Simulate(src, qw),
		ErrorSec: cl.Simulate(src, s.ErrorEstimationWorkload()),
		DiagSec:  cl.Simulate(src, s.DiagnosticsWorkload()),
	}
}

// Breakdown is the per-component simulated latency of one query pipeline
// (the stacked bars of Figs. 7 and 9).
type Breakdown struct {
	QuerySec float64
	ErrorSec float64
	DiagSec  float64
}

// Total returns the end-to-end latency. The three components execute
// concurrently in the optimized system but share the same scan, so the
// total is their sum: the base scan plus each component's incremental
// cost.
func (b Breakdown) Total() float64 { return b.QuerySec + b.ErrorSec + b.DiagSec }
