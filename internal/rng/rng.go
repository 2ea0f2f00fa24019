// Package rng implements the random number substrate of DReAMSim.
//
// The paper's RNG class (§IV-C) is "based on the Ziggurat Method
// [Marsaglia & Tsang 2000a] using the algorithm described in
// [Marsaglia & Tsang 2000b] for generating Gamma variables" and
// provides Poisson, binomial, gamma, uniform and multinomial
// distributions on top of a raw rand_int32 source.
//
// This package is a from-scratch implementation of that stack:
//
//   - a small, fast 64-bit xorshift* core exposed as RandInt32 /
//     RandUint64 (Marsaglia's xorshift family),
//   - the Ziggurat method for standard normal and exponential variates,
//   - the Marsaglia–Tsang "simple method" for Gamma(shape, scale),
//   - Poisson via inversion for small mean and gamma/rejection for
//     large mean,
//   - binomial via the BTPE-free waiting-time / inversion methods,
//   - multinomial by repeated conditional binomials.
//
// All generators are deterministic given a seed and are NOT safe for
// concurrent use; give each goroutine its own *RNG (see Split).
package rng

import "math"

// RNG is a deterministic pseudo-random generator with the distribution
// methods DReAMSim needs. The zero value is not usable; construct with
// New.
type RNG struct {
	s0, s1 uint64
}

// New returns an RNG seeded from seed. Two RNGs constructed with the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-initialises the generator state from seed. A SplitMix64
// scrambler expands the single word into the two state words so that
// small or similar seeds still yield well-separated streams.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 0x9e3779b97f4a7c15 // state must not be all-zero
	}
}

// Split derives an independent generator from the current one. The
// child stream is decorrelated from the parent continuation, which
// keeps per-subsystem streams (arrivals, areas, delays, ...)
// reproducible regardless of the order the subsystems draw in.
func (r *RNG) Split() *RNG {
	return New(r.RandUint64() ^ 0xd1b54a32d192ed03)
}

// RandUint64 returns the next raw 64-bit word (xorshift128+).
func (r *RNG) RandUint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// RandInt32 returns a uniformly distributed 32-bit value, mirroring
// the paper's rand_int32 primitive.
//
//lint:deadexport (b) paper-named API: the RNG class's rand_int32 of §IV-C
func (r *RNG) RandInt32() uint32 {
	return uint32(r.RandUint64() >> 32)
}

// Float64 returns a uniform variate in [0,1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.RandUint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform variate in (0,1); it never returns
// exactly zero, which keeps log() calls in the samplers finite.
func (r *RNG) Float64Open() float64 {
	for {
		if v := r.Float64(); v > 0 {
			return v
		}
	}
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
// Lemire's multiply-shift rejection avoids modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.RandUint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Int64Range returns a uniform int64 in the inclusive range [lo, hi].
func (r *RNG) Int64Range(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: Int64Range with hi < lo")
	}
	span := uint64(hi-lo) + 1
	if span == 0 { // full 64-bit span
		return int64(r.RandUint64())
	}
	for {
		v := r.RandUint64()
		h, l := mul64(v, span)
		if l >= span || l >= (-span)%span {
			return lo + int64(h)
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Normal returns a standard normal variate via the Ziggurat method
// (Marsaglia & Tsang, "The Ziggurat Method for Generating Random
// Variables", JSS 2000), 128 layers.
func (r *RNG) Normal() float64 {
	for {
		u := int64(r.RandUint64())
		i := uint32(u) & 127
		x := float64(u>>8) * normW[i] // u>>8 keeps the sign bit
		if absF(x) < normX[i+1] {
			return x // inside the rectangle: ~98.8% of draws
		}
		if i == 0 {
			// Base strip: sample the normal tail beyond normR.
			for {
				x = -math.Log(r.Float64Open()) / normR
				y := -math.Log(r.Float64Open())
				if y+y > x*x {
					if u < 0 {
						return -(normR + x)
					}
					return normR + x
				}
			}
		}
		// Wedge: accept with the exact density.
		ax := absF(x)
		if normF[i+1]+r.Float64()*(normF[i]-normF[i+1]) < math.Exp(-0.5*ax*ax) {
			return x
		}
	}
}

// Exponential returns a standard exponential variate (mean 1) via the
// Ziggurat method, 256 layers.
func (r *RNG) Exponential() float64 {
	for {
		u := r.RandUint64()
		i := uint32(u) & 255
		x := float64(u>>11) * expW[i]
		if x < expX[i+1] {
			return x
		}
		if i == 0 {
			// Tail: exponential beyond expR is expR + Exp(1).
			return expR - math.Log(r.Float64Open())
		}
		if expF[i+1]+r.Float64()*(expF[i]-expF[i+1]) < math.Exp(-x) {
			return x
		}
	}
}

// ExpRate returns an exponential variate with the given rate (events
// per timetick); the mean is 1/rate.
func (r *RNG) ExpRate(rate float64) float64 {
	if !(rate > 0) { // also rejects NaN, which no comparison admits
		panic("rng: ExpRate with non-positive rate")
	}
	return r.Exponential() / rate
}

// Gamma returns a Gamma(shape, scale) variate using the Marsaglia &
// Tsang method ("A Simple Method for Generating Gamma Variables",
// TOMS 2000) cited by the paper; shape < 1 is boosted via the
// standard U^(1/shape) transformation.
func (r *RNG) Gamma(shape, scale float64) float64 {
	// NaN passes every <= comparison and then wedges the acceptance
	// loop (v > 0 is never true), so non-finite parameters must be
	// rejected before the sign check.
	if !finite(shape) || !finite(scale) {
		panic("rng: Gamma with non-finite parameter")
	}
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive parameter")
	}
	boost := 1.0
	if shape < 1 {
		boost = math.Pow(r.Float64Open(), 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Normal()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * scale
		}
	}
}

// Poisson returns a Poisson(mean) variate. Small means use Knuth's
// product method; large means use the log-gamma rejection method
// (Atkinson/PTRS style) to stay O(1).
//
//lint:deadexport (b) paper-named API: the RNG class's Poisson distribution of §IV-C
func (r *RNG) Poisson(mean float64) int {
	// A NaN or +Inf mean turns the Atkinson envelope into NaN and the
	// rejection test never accepts: reject non-finite up front.
	if !finite(mean) {
		panic("rng: Poisson with non-finite mean")
	}
	if mean < 0 {
		panic("rng: Poisson with negative mean")
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64Open()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Rejection from a logistic envelope (Atkinson 1979).
	beta := math.Pi / math.Sqrt(3*mean)
	alpha := beta * mean
	c := 0.767 - 3.36/mean
	k := math.Log(c) - mean - math.Log(beta)
	for {
		u := r.Float64Open()
		x := (alpha - math.Log((1-u)/u)) / beta
		n := math.Floor(x + 0.5)
		if n < 0 {
			continue
		}
		v := r.Float64Open()
		y := alpha - beta*x
		lhs := y + math.Log(v/(1+math.Exp(y))/(1+math.Exp(y)))
		rhs := k + n*math.Log(mean) - logFactorial(n)
		if lhs <= rhs {
			return int(n)
		}
	}
}

// Binomial returns a Binomial(n, p) variate: the number of successes
// in n Bernoulli(p) trials. Symmetry and the waiting-time method keep
// it O(np) worst case, which is ample for simulator parameters.
func (r *RNG) Binomial(p float64, n int) int {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	// NaN slips past every range test below and the geometric-skip
	// loop never terminates on NaN gaps.
	if math.IsNaN(p) {
		panic("rng: Binomial with NaN probability")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(1-p, n)
	}
	// Geometric-skip method (Devroye): jump between successes with
	// geometric gaps; expected iterations np+1.
	// Log1p keeps logq nonzero for tiny p: with Log(1-p), any
	// p < ~1e-16 rounds 1-p to exactly 1, logq to 0, and the gap
	// below to -Inf — an infinite loop.
	logq := math.Log1p(-p)
	x := 0
	trials := 0
	for {
		gap := math.Floor(math.Log(r.Float64Open())/logq) + 1
		// For tiny p the geometric gap can exceed int range; the
		// int conversion would wrap negative and the loop would
		// never cross n. Compare in float space first.
		if gap > float64(n-trials) {
			return x
		}
		trials += int(gap)
		if trials > n {
			return x
		}
		x++
	}
}

// Multinom distributes n trials over the category probabilities in
// probs (which must be non-negative; they are normalised internally)
// by chained conditional binomials. The returned slice sums to n.
//
//lint:deadexport (b) paper-named API: the RNG class's multinomial distribution of §IV-C
func (r *RNG) Multinom(n uint, probs []float64) []int {
	out := make([]int, len(probs))
	total := 0.0
	for _, p := range probs {
		if p < 0 || !finite(p) {
			panic("rng: Multinom with negative or non-finite probability")
		}
		total += p
	}
	remaining := int(n)
	for i, p := range probs {
		if remaining == 0 {
			break
		}
		if total <= 0 {
			break
		}
		if i == len(probs)-1 {
			out[i] = remaining
			remaining = 0
			break
		}
		k := r.Binomial(p/total, remaining)
		out[i] = k
		remaining -= k
		total -= p
	}
	return out
}

// logFactorial returns ln(n!) using Stirling's series for large n and
// a table for small n.
func logFactorial(n float64) float64 {
	if n < 0 {
		panic("rng: logFactorial of negative value")
	}
	i := int(n)
	if i < len(logFactTable) {
		return logFactTable[i]
	}
	// Stirling series with the first correction terms.
	x := n + 1
	return (x-0.5)*math.Log(x) - x + 0.5*math.Log(2*math.Pi) +
		1/(12*x) - 1/(360*x*x*x)
}

var logFactTable = func() [128]float64 {
	var t [128]float64
	acc := 0.0
	for i := 2; i < len(t); i++ {
		acc += math.Log(float64(i))
		t[i] = acc
	}
	return t
}()

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
