package stats

import "math"

// StdNormalCDF returns P(N(0,1) <= z).
func StdNormalCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// StdNormalQuantile returns the p-quantile of the standard normal
// distribution using Acklam's rational approximation refined by one
// Halley step, accurate to ~1e-15 over (0, 1). It returns ±Inf at the
// endpoints and NaN outside [0, 1].
func StdNormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients for Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step.
	e := StdNormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// StudentTQuantile returns the p-quantile of Student's t distribution with
// df degrees of freedom, via the Cornish–Fisher-style expansion of Hill
// (1970). For df >= ~30 it converges to the normal quantile; closed-form
// CLT intervals on small subsamples use the t correction.
func StudentTQuantile(p float64, df float64) float64 {
	if df <= 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	if p == 0 {
		return math.Inf(-1)
	}
	if p == 1 {
		return math.Inf(1)
	}
	if df > 1e6 {
		return StdNormalQuantile(p)
	}
	// Exact small-df cases.
	switch df {
	case 1:
		return math.Tan(math.Pi * (p - 0.5))
	case 2:
		a := 4 * p * (1 - p)
		return 2 * (p - 0.5) * math.Sqrt(2/a)
	}
	z := StdNormalQuantile(p)
	g1 := (z*z*z + z) / 4
	g2 := (5*math.Pow(z, 5) + 16*z*z*z + 3*z) / 96
	g3 := (3*math.Pow(z, 7) + 19*math.Pow(z, 5) + 17*z*z*z - 15*z) / 384
	g4 := (79*math.Pow(z, 9) + 776*math.Pow(z, 7) + 1482*math.Pow(z, 5) -
		1920*z*z*z - 945*z) / 92160
	return z + g1/df + g2/(df*df) + g3/(df*df*df) + g4/(df*df*df*df)
}
