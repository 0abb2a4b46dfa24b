package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/sample"
)

// EstimateRequiredRows predicts how many sample rows the query needs to
// meet the relative error bound at the engine's confidence level, using
// pilot moments measured on the table's smallest sample (the Fig. 1
// calculation exposed as an API). It requires a single closed-form-able
// aggregate; bootstrap-only queries return an error since their error
// does not follow a simple 1/√n law for all aggregates.
func (e *Engine) EstimateRequiredRows(query string, relErr float64) (int, error) {
	if relErr <= 0 {
		return 0, fmt.Errorf("core: relative error bound must be positive")
	}
	def, rt, err := e.analyze(nil, query)
	if err != nil {
		return 0, err
	}
	if len(rt.samples) == 0 {
		return 0, fmt.Errorf("core: table %q has no samples to pilot on", def.Table)
	}
	if len(def.Aggs) != 1 || !def.ClosedFormOK() {
		return 0, fmt.Errorf("core: required-rows estimation needs a single closed-form aggregate")
	}
	pilot := rt.samples[0]
	ans, err := e.runApproximate(context.Background(), nil, query, def, rt, pilot, 0, false)
	if err != nil {
		return 0, fmt.Errorf("core: pilot for required-rows estimate: %w", err)
	}
	agg := ans.Groups[0].Aggs[0]
	if math.IsNaN(agg.RelErr) || math.IsInf(agg.RelErr, 0) || agg.RelErr <= 0 {
		return 0, fmt.Errorf("core: pilot produced no usable error estimate")
	}
	// Closed-form half-widths shrink as 1/√n.
	n := float64(pilot.Data.NumRows()) * (agg.RelErr / relErr) * (agg.RelErr / relErr)
	if n < 1 {
		n = 1
	}
	if n > math.MaxInt32 {
		return math.MaxInt32, nil
	}
	return int(math.Ceil(n)), nil
}

// QueryWithTimeBudget answers the query on the largest sample whose
// predicted execution time fits the budget (BlinkDB's response-time
// constrained queries). Prediction calibrates per-row cost on the
// smallest sample, so the first budgeted query on a table pays one pilot
// execution.
func (e *Engine) QueryWithTimeBudget(query string, budget time.Duration) (*Answer, error) {
	return e.RunWithTimeBudget(context.Background(), query, budget)
}

// RunWithTimeBudget is QueryWithTimeBudget honouring cancellation.
func (e *Engine) RunWithTimeBudget(ctx context.Context, query string, budget time.Duration) (ans *Answer, err error) {
	if budget <= 0 {
		return nil, fmt.Errorf("core: time budget must be positive")
	}
	ctx, tc := obs.EnsureTrace(ctx)
	qt := e.obs.StartQuery(query)
	qt.SetTraceContext(tc)
	defer func() { e.finishQuery(ctx, qt, query, ans, err, true) }()
	def, rt, err := e.analyze(qt, query)
	if err != nil {
		return nil, err
	}
	if len(rt.samples) == 0 {
		return e.runExact(ctx, qt, qt.Root(), query, def, rt)
	}
	pilot := rt.samples[0]
	// Budgeted answers are returned as they come, rejected aggregates with
	// their bootstrap error bars included, so the plans keep every bootstrap.
	pilotAns, err := e.runApproximate(ctx, qt, query, def, rt, pilot, 0, false)
	if err != nil {
		return nil, fmt.Errorf("core: budget pilot: %w", err)
	}
	if pilotAns.Elapsed >= budget {
		// Even the smallest sample blows the budget; it is still the best
		// we can do.
		return pilotAns, nil
	}
	perRow := float64(pilotAns.Elapsed) / float64(pilot.Data.NumRows())
	maxRows := int(float64(budget) / perRow * 0.8) // 20% headroom
	best := pilot
	for _, st := range rt.samples {
		if st.Data.NumRows() <= maxRows {
			best = st
		}
	}
	if best == pilot {
		return pilotAns, nil
	}
	return e.runApproximate(ctx, qt, query, def, rt, best, 0, false)
}

// RequiredSampleSizeForError is a convenience re-export of the Fig. 1
// closed-form calculation for callers holding raw pilot statistics.
func RequiredSampleSizeForError(mean, stddev, relErr, alpha float64) int {
	return sample.RequiredSampleSize(mean, stddev, relErr, alpha)
}
