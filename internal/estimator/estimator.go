package estimator

import (
	"context"
	"errors"

	"repro/internal/rng"
)

// ErrNotApplicable is returned by an Estimator whose technique does not
// cover the given query (e.g. closed forms for MIN).
var ErrNotApplicable = errors.New("estimator: technique not applicable to this query")

// ConfidenceLevel is the α of every error bar the engine serves (the
// paper's 95%). The diagnostic tests ξ's intervals at it and the watchdog
// holds audited coverage to it, so the three cannot disagree.
const ConfidenceLevel = 0.95

// Estimator produces an α-confidence interval for θ(D) from a single
// sample. This is the ξ of Algorithm 1: the diagnostic validates any
// implementation of this interface at runtime.
type Estimator interface {
	// Name identifies the technique ("bootstrap", "closed-form", ...).
	Name() string
	// AppliesTo reports whether the technique covers the query at all.
	AppliesTo(q Query) bool
	// Interval estimates a symmetric centered α confidence interval for
	// θ(D) given sample values. Implementations that need randomness
	// (the bootstrap) draw from src; deterministic ones ignore it.
	Interval(src *rng.Source, values []float64, q Query, alpha float64) (Interval, error)
}

// ContextEstimator is implemented by estimators whose Interval computation
// is long enough to warrant cooperative cancellation (the bootstrap family;
// closed forms finish in microseconds and have no need). Callers that hold
// a context — the diagnostic's subsample loop, the engine's serving layer —
// probe for this interface and prefer IntervalContext so a cancelled query
// aborts resampling mid-flight instead of running it to completion.
type ContextEstimator interface {
	Estimator
	// IntervalContext is Interval honouring ctx: a cancelled context makes
	// it return ctx's error promptly (within one resample's work).
	IntervalContext(ctx context.Context, src *rng.Source, values []float64, q Query, alpha float64) (Interval, error)
}
