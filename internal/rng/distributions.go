package rng

import "math"

// Additional distributions used by workload modelling: recorded job
// runtimes are famously heavy-tailed (lognormal/Weibull/Pareto fits
// are standard in the parallel-workloads literature), and Zipf powers
// skewed popularity draws (e.g. some configurations being requested
// far more often than others).

// Lognormal returns a variate whose logarithm is Normal(mu, sigma).
func (r *RNG) Lognormal(mu, sigma float64) float64 {
	// A NaN parameter slips past the sign check (NaN fails every
	// comparison) and poisons the stream silently; reject it up front
	// like Gamma and Poisson do.
	if !finite(mu) || !finite(sigma) {
		panic("rng: Lognormal with non-finite parameter")
	}
	if sigma < 0 {
		panic("rng: Lognormal with negative sigma")
	}
	return math.Exp(mu + sigma*r.Normal())
}

// Weibull returns a Weibull(shape, scale) variate by inversion.
func (r *RNG) Weibull(shape, scale float64) float64 {
	if !finite(shape) || !finite(scale) {
		panic("rng: Weibull with non-finite parameter")
	}
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull with non-positive parameter")
	}
	return scale * math.Pow(-math.Log(r.Float64Open()), 1/shape)
}

// Pareto returns a Pareto(xm, alpha) variate (minimum xm, tail index
// alpha) by inversion.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if !finite(xm) || !finite(alpha) {
		panic("rng: Pareto with non-finite parameter")
	}
	if xm <= 0 || alpha <= 0 {
		panic("rng: Pareto with non-positive parameter")
	}
	return xm / math.Pow(r.Float64Open(), 1/alpha)
}

// GammaParams converts a (mean, cv) inter-arrival description into
// Gamma(shape, scale) parameters: shape = 1/cv², scale = mean·cv².
// The coefficient of variation is the burstiness dial of an arrival
// process — cv = 1 recovers the exponential (Poisson process), cv > 1
// clumps arrivals into bursts, cv < 1 smooths them toward periodic.
func GammaParams(mean, cv float64) (shape, scale float64) {
	if !finite(mean) || !finite(cv) || mean <= 0 || cv <= 0 {
		panic("rng: GammaParams needs positive finite mean and cv")
	}
	return 1 / (cv * cv), mean * cv * cv
}

// WeibullParams converts a (mean, cv) inter-arrival description into
// Weibull(shape, scale) parameters. The shape k solves
//
//	cv² = Γ(1+2/k)/Γ(1+1/k)² − 1
//
// by bisection (cv is strictly decreasing in k), and the scale then
// pins the mean: scale = mean/Γ(1+1/k). Supported cv range is
// [0.01, 100], ample for workload modelling.
func WeibullParams(mean, cv float64) (shape, scale float64) {
	if !finite(mean) || !finite(cv) || mean <= 0 || cv <= 0 {
		panic("rng: WeibullParams needs positive finite mean and cv")
	}
	if cv < 0.01 || cv > 100 {
		panic("rng: WeibullParams cv outside [0.01, 100]")
	}
	want := cv * cv
	lo, hi := 0.05, 200.0 // cv²(0.05) ≈ 1.4e11, cv²(200) ≈ 4e-5: brackets the supported range
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if weibullCV2(mid) > want {
			lo = mid
		} else {
			hi = mid
		}
	}
	shape = (lo + hi) / 2
	scale = mean / math.Gamma(1+1/shape)
	return shape, scale
}

// weibullCV2 returns the squared coefficient of variation of a
// Weibull distribution with the given shape.
func weibullCV2(k float64) float64 {
	g1 := math.Gamma(1 + 1/k)
	g2 := math.Gamma(1 + 2/k)
	return g2/(g1*g1) - 1
}

// Zipf draws from {0, ..., n-1} with P(k) ∝ 1/(k+1)^s via inversion
// over the precomputed CDF held by a Zipf sampler; use NewZipf for
// repeated draws.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes a Zipf(n, s) sampler. n must be positive and
// s non-negative (s = 0 degenerates to uniform).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if s < 0 {
		panic("rng: Zipf with negative exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Draw samples a rank in [0, n).
func (z *Zipf) Draw(r *RNG) int {
	u := r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
