package rng

import (
	"math"
	"testing"
)

func TestLognormalMoments(t *testing.T) {
	r := New(101)
	mu, sigma := 1.0, 0.5
	wantMean := math.Exp(mu + sigma*sigma/2)
	mean, _ := moments(statN, func() float64 { return r.Lognormal(mu, sigma) })
	if math.Abs(mean-wantMean) > 0.03*wantMean {
		t.Errorf("lognormal mean %v, want ~%v", mean, wantMean)
	}
	// Median check: P(X < e^mu) = 0.5.
	below := 0
	for i := 0; i < statN/4; i++ {
		if r.Lognormal(mu, sigma) < math.Exp(mu) {
			below++
		}
	}
	frac := float64(below) / float64(statN/4)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("lognormal median fraction %v", frac)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative sigma accepted")
		}
	}()
	r.Lognormal(0, -1)
}

func TestWeibullMoments(t *testing.T) {
	r := New(103)
	// shape 1 reduces to exponential(scale).
	mean, _ := moments(statN, func() float64 { return r.Weibull(1, 3) })
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("Weibull(1,3) mean %v, want ~3", mean)
	}
	// shape 2: mean = scale * Gamma(1.5) = scale * sqrt(pi)/2.
	want := 2 * math.Sqrt(math.Pi) / 2
	mean, _ = moments(statN, func() float64 { return r.Weibull(2, 2) })
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("Weibull(2,2) mean %v, want ~%v", mean, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad shape accepted")
		}
	}()
	r.Weibull(0, 1)
}

func TestParetoProperties(t *testing.T) {
	r := New(107)
	xm, alpha := 2.0, 3.0
	wantMean := alpha * xm / (alpha - 1)
	mean, _ := moments(statN, func() float64 { return r.Pareto(xm, alpha) })
	if math.Abs(mean-wantMean) > 0.05*wantMean {
		t.Errorf("Pareto mean %v, want ~%v", mean, wantMean)
	}
	for i := 0; i < 10000; i++ {
		if r.Pareto(xm, alpha) < xm {
			t.Fatal("Pareto below its minimum")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad xm accepted")
		}
	}()
	r.Pareto(0, 1)
}

func TestZipfSkew(t *testing.T) {
	r := New(109)
	z := NewZipf(50, 1.0)
	counts := make([]int, 50)
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Draw(r)
		if k < 0 || k >= 50 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	// Rank 0 should be drawn ~2x rank 1 and ~10x rank 9.
	if counts[0] < counts[1] || counts[1] < counts[4] {
		t.Errorf("Zipf ranks not decreasing: %v", counts[:5])
	}
	r01 := float64(counts[0]) / float64(counts[1])
	if r01 < 1.8 || r01 > 2.2 {
		t.Errorf("rank0/rank1 ratio %v, want ~2", r01)
	}
}

func TestZipfUniformDegenerate(t *testing.T) {
	r := New(113)
	z := NewZipf(10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Draw(r)]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-10000) > 500 {
			t.Errorf("s=0 bucket %d count %d, want ~10000", k, c)
		}
	}
}

// TestGammaParamsMoments checks the mean/cv parameterisation used by
// scenario arrival processes: samples drawn with GammaParams must
// reproduce the requested mean and coefficient of variation.
func TestGammaParamsMoments(t *testing.T) {
	r := New(127)
	for _, tc := range []struct{ mean, cv float64 }{
		{25, 0.5}, {25, 1.0}, {40, 2.5},
	} {
		shape, scale := GammaParams(tc.mean, tc.cv)
		if shape*scale != tc.mean && math.Abs(shape*scale-tc.mean) > 1e-9*tc.mean {
			t.Errorf("GammaParams(%v,%v): shape*scale = %v", tc.mean, tc.cv, shape*scale)
		}
		mean, variance := moments(statN, func() float64 { return r.Gamma(shape, scale) })
		if math.Abs(mean-tc.mean) > 0.05*tc.mean {
			t.Errorf("Gamma(mean=%v,cv=%v): sample mean %v", tc.mean, tc.cv, mean)
		}
		if cv := math.Sqrt(variance) / mean; math.Abs(cv-tc.cv) > 0.08*tc.cv {
			t.Errorf("Gamma(mean=%v,cv=%v): sample cv %v", tc.mean, tc.cv, cv)
		}
	}
}

// TestWeibullParamsMoments does the same for the Weibull mean/cv
// inversion (shape recovered by bisection).
func TestWeibullParamsMoments(t *testing.T) {
	r := New(131)
	for _, tc := range []struct{ mean, cv float64 }{
		{25, 0.3}, {25, 1.0}, {40, 1.8},
	} {
		shape, scale := WeibullParams(tc.mean, tc.cv)
		// Analytic round-trip: the recovered shape must reproduce cv².
		if got := math.Sqrt(weibullCV2(shape)); math.Abs(got-tc.cv) > 1e-6*tc.cv {
			t.Errorf("WeibullParams(%v,%v): shape %v gives cv %v", tc.mean, tc.cv, shape, got)
		}
		mean, variance := moments(statN, func() float64 { return r.Weibull(shape, scale) })
		if math.Abs(mean-tc.mean) > 0.05*tc.mean {
			t.Errorf("Weibull(mean=%v,cv=%v): sample mean %v", tc.mean, tc.cv, mean)
		}
		if cv := math.Sqrt(variance) / mean; math.Abs(cv-tc.cv) > 0.08*tc.cv {
			t.Errorf("Weibull(mean=%v,cv=%v): sample cv %v", tc.mean, tc.cv, cv)
		}
	}
	// shape 1 (cv = 1) degenerates to exponential: scale == mean.
	if shape, scale := WeibullParams(10, 1); math.Abs(shape-1) > 1e-6 || math.Abs(scale-10) > 1e-5 {
		t.Errorf("WeibullParams(10, 1) = (%v, %v), want (1, 10)", shape, scale)
	}
}

// TestDistributionGuards locks in the non-finite parameter rejections
// (the PR 2 guard pattern): NaN passes a plain sign check, so every
// sampler and parameter helper must refuse it explicitly.
func TestDistributionGuards(t *testing.T) {
	r := New(137)
	nan := math.NaN()
	inf := math.Inf(1)
	for name, f := range map[string]func(){
		"Lognormal-nan":     func() { r.Lognormal(nan, 1) },
		"Lognormal-inf":     func() { r.Lognormal(0, inf) },
		"Weibull-nan":       func() { r.Weibull(nan, 1) },
		"Weibull-inf":       func() { r.Weibull(1, inf) },
		"Pareto-nan":        func() { r.Pareto(nan, 1) },
		"Pareto-inf":        func() { r.Pareto(1, inf) },
		"GammaParams-nan":   func() { GammaParams(nan, 1) },
		"GammaParams-zero":  func() { GammaParams(0, 1) },
		"WeibullParams-nan": func() { WeibullParams(10, nan) },
		"WeibullParams-lo":  func() { WeibullParams(10, 0.001) },
		"WeibullParams-hi":  func() { WeibullParams(10, 1000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf(0, 1) accepted")
		}
	}()
	NewZipf(0, 1)
}
