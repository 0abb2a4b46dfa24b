package estimator

import (
	"fmt"
	"math"
)

// Interval is a symmetric centered confidence interval
// [Center-HalfWidth, Center+HalfWidth], the evaluation object of §2.2.
type Interval struct {
	Center    float64
	HalfWidth float64
}

// Lo returns the lower endpoint.
func (iv Interval) Lo() float64 { return iv.Center - iv.HalfWidth }

// Hi returns the upper endpoint.
func (iv Interval) Hi() float64 { return iv.Center + iv.HalfWidth }

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool {
	return x >= iv.Lo() && x <= iv.Hi()
}

// RelativeError returns HalfWidth / |Center|: the error bar's half-width
// relative to the estimate, as an answer reports it. Returns +Inf for a zero
// center.
func (iv Interval) RelativeError() float64 {
	if iv.Center == 0 {
		return math.Inf(1)
	}
	return iv.HalfWidth / math.Abs(iv.Center)
}

func (iv Interval) String() string {
	return fmt.Sprintf("%g ± %g", iv.Center, iv.HalfWidth)
}
