package metrics

import "math"

// Running accumulates count/mean/variance (Welford) plus min/max of a
// stream of observations without storing them.
type Running struct {
	n        int64
	mean, m2 float64
	min, max float64
	everSeen bool
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
	if !r.everSeen || x < r.min {
		r.min = x
	}
	if !r.everSeen || x > r.max {
		r.max = x
	}
	r.everSeen = true
}

// N returns the observation count.
func (r *Running) N() int64 { return r.n }

// Mean returns the running mean (0 for an empty accumulator).
func (r *Running) Mean() float64 { return r.mean }

// Min and Max return the extremes (0 for an empty accumulator).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation.
func (r *Running) Max() float64 { return r.max }

// Variance returns the sample variance (n-1 denominator).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }
