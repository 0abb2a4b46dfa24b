package core

import (
	"context"
	"fmt"
	"math"

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
	// The pilot is read as it comes: no aggregate of it is re-answered exactly.
	ans, err := e.runApproximate(&request{ctx: context.Background(), sql: query, def: def, rt: rt}, pilot, false)
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

// RequiredSampleSizeForError is a convenience re-export of the Fig. 1
// closed-form calculation for callers holding raw pilot statistics.
func RequiredSampleSizeForError(mean, stddev, relErr, alpha float64) int {
	return sample.RequiredSampleSize(mean, stddev, relErr, alpha)
}
