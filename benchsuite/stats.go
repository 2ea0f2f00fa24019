package main

import (
	"math"
	"math/bits"
	"sort"
)

// summary is a metric's median with its quartiles and sample count.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize sorts a copy of xs and returns its median and quartiles.
// Quartiles use the exclusive method of Python's
// statistics.quantiles(n=4), clamped to the sample range, so the spread
// the suite records matches the one a reader computes over its output.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// quantile interpolates the q-quantile of the sorted slice s at the
// 1-based position q*(n+1).
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(len(s)) {
		return s[len(s)-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return s[i-1] + frac*(s[i]-s[i-1])
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(q float64, n uint64) uint64 {
	r := uint64(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// subBits splits every power of two into 1<<subBits histogram buckets,
// so a bucket is at most 12.5% wide relative to its lower bound.
const subBits = 3

// logHist is a log-bucketed latency histogram. It folds millions of
// per-call durations into a fixed 512-bucket array and answers
// quantiles to within one bucket.
type logHist struct {
	counts [64 << subBits]uint64
	n      uint64
}

// bucketOf returns the bucket of a duration in nanoseconds; values
// below 1<<subBits each get an exact bucket.
func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int(uint64(v)>>(e-subBits)) & (1<<subBits - 1)
	return (e-subBits+1)<<subBits + sub
}

// bucketLow is the smallest value that falls in bucket i.
func bucketLow(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	e := i>>subBits + subBits - 1
	sub := int64(i & (1<<subBits - 1))
	return 1<<e | sub<<(e-subBits)
}

func (h *logHist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *logHist) merge(o *logHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the lower bound of the bucket holding the
// nearest-rank q-quantile; 0 for an empty histogram.
func (h *logHist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := rankOf(q, h.n)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return bucketLow(len(h.counts) - 1)
}
