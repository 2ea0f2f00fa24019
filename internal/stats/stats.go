// Package stats provides the small statistical toolkit the experiment
// harness uses to attach confidence to simulator comparisons: sample
// summaries for replicated runs, and paired differences with t-based
// confidence intervals. The paper reports single runs; this toolkit
// shows its orderings are not seed artifacts.
package stats

import (
	"fmt"
	"math"
)

// Summary holds the moments of one sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // sample variance (n-1)
	Min, Max float64
}

// Summarize computes a Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(s.N)
	for _, x := range xs {
		d := x - s.Mean
		s.Variance += d * d
	}
	if s.N > 1 {
		s.Variance /= float64(s.N - 1)
	}
	return s
}

// StdDev returns the sample standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Variance) }

// PairedResult describes a paired comparison of two matched samples
// (e.g. full vs partial reconfiguration over the same seeds).
type PairedResult struct {
	N        int
	MeanDiff float64 // mean of (a - b)
	CI95     float64 // half-width of the 95% CI of the mean difference
	T        float64 // t statistic of the mean difference
	// AllPositive / AllNegative report sign-consistency of the pairs:
	// the strongest possible ordering evidence at small n.
	AllPositive bool
	AllNegative bool
}

// Paired compares matched samples a and b (same length, same
// experimental units). The confidence interval uses Student's t
// quantile for n-1 degrees of freedom.
func Paired(a, b []float64) (PairedResult, error) {
	if len(a) != len(b) {
		return PairedResult{}, fmt.Errorf("stats: paired samples differ in length: %d vs %d", len(a), len(b))
	}
	if len(a) < 2 {
		return PairedResult{}, fmt.Errorf("stats: paired comparison needs at least 2 pairs")
	}
	diffs := make([]float64, len(a))
	allPos, allNeg := true, true
	for i := range a {
		diffs[i] = a[i] - b[i]
		if diffs[i] <= 0 {
			allPos = false
		}
		if diffs[i] >= 0 {
			allNeg = false
		}
	}
	s := Summarize(diffs)
	se := s.StdDev() / math.Sqrt(float64(s.N))
	r := PairedResult{
		N:           s.N,
		MeanDiff:    s.Mean,
		AllPositive: allPos,
		AllNegative: allNeg,
	}
	if se > 0 {
		r.T = s.Mean / se
	}
	r.CI95 = tQuantile975(s.N-1) * se
	return r, nil
}

// tQuantile975 returns the 97.5% quantile of Student's t distribution
// with df degrees of freedom (two-sided 5% critical value), from a
// table for small df and the normal limit beyond.
func tQuantile975(df int) float64 {
	table := []float64{ // df = 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df < 1:
		return math.Inf(1)
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}
