package rng

import (
	"math"
	"testing"
	"testing/quick"
)

const statN = 200000

// moments draws n samples and returns mean and variance.
func moments(n int, draw func() float64) (mean, variance float64) {
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := draw()
		sum += v
		sumsq += v * v
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.RandUint64() != b.RandUint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.RandUint64() == b.RandUint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds collided on %d of 1000 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.RandUint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced repeats: %d distinct of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64UniformMoments(t *testing.T) {
	r := New(11)
	mean, variance := moments(statN, r.Float64)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12.0) > 0.01 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12.0)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 4*math.Sqrt(float64(want)) {
			t.Errorf("bucket %d: count %d deviates from %d", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt64Range(t *testing.T) {
	r := New(13)
	lo, hi := int64(-1000), int64(1000)
	for i := 0; i < 10000; i++ {
		v := r.Int64Range(lo, hi)
		if v < lo || v > hi {
			t.Fatalf("Int64Range out of bounds: %d", v)
		}
	}
	if got := r.Int64Range(-3, -3); got != -3 {
		t.Errorf("degenerate range returned %d", got)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	mean, variance := moments(statN, r.Normal)
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormalTailFrequency(t *testing.T) {
	r := New(19)
	const n = statN
	tail := 0
	for i := 0; i < n; i++ {
		if math.Abs(r.Normal()) > 2 {
			tail++
		}
	}
	// P(|Z|>2) ~ 0.0455.
	frac := float64(tail) / n
	if frac < 0.035 || frac > 0.056 {
		t.Errorf("P(|Z|>2) estimate = %v, want ~0.0455", frac)
	}
}

func TestExponentialMoments(t *testing.T) {
	r := New(23)
	mean, variance := moments(statN, r.Exponential)
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean = %v, want ~1", mean)
	}
	if math.Abs(variance-1) > 0.06 {
		t.Errorf("exp variance = %v, want ~1", variance)
	}
}

func TestExponentialPositive(t *testing.T) {
	r := New(29)
	for i := 0; i < 100000; i++ {
		if v := r.Exponential(); v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
	}
}

func TestExpRate(t *testing.T) {
	r := New(31)
	mean, _ := moments(statN, func() float64 { return r.ExpRate(4) })
	if math.Abs(mean-0.25) > 0.01 {
		t.Errorf("ExpRate(4) mean = %v, want ~0.25", mean)
	}
}

func TestGammaMoments(t *testing.T) {
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 1}, {1, 2}, {2.5, 1}, {9, 0.5}, {20, 1},
	} {
		r := New(37)
		mean, variance := moments(statN, func() float64 { return r.Gamma(tc.shape, tc.scale) })
		wantMean := tc.shape * tc.scale
		wantVar := tc.shape * tc.scale * tc.scale
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.01 {
			t.Errorf("Gamma(%v,%v) mean = %v, want ~%v", tc.shape, tc.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.12*wantVar+0.02 {
			t.Errorf("Gamma(%v,%v) variance = %v, want ~%v", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 12, 29, 30, 80, 400} {
		r := New(41)
		m, v := moments(statN/2, func() float64 { return float64(r.Poisson(mean)) })
		if math.Abs(m-mean) > 0.04*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(v-mean) > 0.10*mean+0.1 {
			t.Errorf("Poisson(%v) variance = %v", mean, v)
		}
	}
}

func TestPoissonEdge(t *testing.T) {
	r := New(43)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Poisson(-1) did not panic")
		}
	}()
	r.Poisson(-1)
}

func TestBinomialMoments(t *testing.T) {
	for _, tc := range []struct {
		p float64
		n int
	}{
		{0.1, 50}, {0.5, 40}, {0.9, 30}, {0.01, 1000},
	} {
		r := New(47)
		wantMean := tc.p * float64(tc.n)
		wantVar := wantMean * (1 - tc.p)
		m, v := moments(statN/4, func() float64 { return float64(r.Binomial(tc.p, tc.n)) })
		if math.Abs(m-wantMean) > 0.05*wantMean+0.05 {
			t.Errorf("Binomial(%v,%d) mean = %v, want ~%v", tc.p, tc.n, m, wantMean)
		}
		if math.Abs(v-wantVar) > 0.12*wantVar+0.1 {
			t.Errorf("Binomial(%v,%d) variance = %v, want ~%v", tc.p, tc.n, v, wantVar)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(53)
	if got := r.Binomial(0, 10); got != 0 {
		t.Errorf("Binomial(0,10) = %d", got)
	}
	if got := r.Binomial(1, 10); got != 10 {
		t.Errorf("Binomial(1,10) = %d", got)
	}
	if got := r.Binomial(0.5, 0); got != 0 {
		t.Errorf("Binomial(0.5,0) = %d", got)
	}
	for i := 0; i < 10000; i++ {
		if got := r.Binomial(0.3, 7); got < 0 || got > 7 {
			t.Fatalf("Binomial out of range: %d", got)
		}
	}
}

func TestMultinomSumsToN(t *testing.T) {
	r := New(59)
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	for trial := 0; trial < 200; trial++ {
		out := r.Multinom(1000, probs)
		sum := 0
		for _, c := range out {
			if c < 0 {
				t.Fatalf("negative category count %d", c)
			}
			sum += c
		}
		if sum != 1000 {
			t.Fatalf("Multinom sum = %d, want 1000", sum)
		}
	}
}

func TestMultinomProportions(t *testing.T) {
	r := New(61)
	probs := []float64{1, 1, 2} // normalised internally
	totals := make([]float64, 3)
	const trials = 300
	for i := 0; i < trials; i++ {
		for j, c := range r.Multinom(1000, probs) {
			totals[j] += float64(c)
		}
	}
	want := []float64{0.25, 0.25, 0.5}
	for j := range want {
		got := totals[j] / (1000 * trials)
		if math.Abs(got-want[j]) > 0.02 {
			t.Errorf("category %d proportion = %v, want ~%v", j, got, want[j])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(71)
	child := parent.Split()
	// Child stream must differ from continued parent stream.
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.RandUint64() == child.RandUint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and child streams collided %d times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(73).Split()
	b := New(73).Split()
	for i := 0; i < 100; i++ {
		if a.RandUint64() != b.RandUint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestLogFactorial(t *testing.T) {
	// Compare against direct summation for a spread of n.
	for _, n := range []int{0, 1, 2, 5, 50, 127, 128, 500, 10000} {
		want := 0.0
		for i := 2; i <= n; i++ {
			want += math.Log(float64(i))
		}
		got := logFactorial(float64(n))
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("logFactorial(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestZigguratTablesMonotone(t *testing.T) {
	for i := 0; i < 128; i++ {
		if normX[i] < normX[i+1] {
			t.Fatalf("normX not decreasing at %d: %v < %v", i, normX[i], normX[i+1])
		}
	}
	for i := 0; i < 256; i++ {
		if expX[i] < expX[i+1] {
			t.Fatalf("expX not decreasing at %d: %v < %v", i, expX[i], expX[i+1])
		}
	}
	if normX[1] != normR || expX[1] != expR {
		t.Fatal("table anchors corrupted")
	}
	if normX[128] > 0.05 {
		t.Errorf("normX top layer did not converge to ~0: %v", normX[128])
	}
	if expX[256] > 0.05 {
		t.Errorf("expX top layer did not converge to ~0: %v", expX[256])
	}
}

// Property: Multinom conserves trials for arbitrary positive weights.
func TestQuickMultinomConserves(t *testing.T) {
	r := New(83)
	f := func(w1, w2, w3 uint8, n uint16) bool {
		probs := []float64{float64(w1) + 1, float64(w2) + 1, float64(w3) + 1}
		out := r.Multinom(uint(n), probs)
		sum := 0
		for _, c := range out {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.RandUint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal()
	}
}

func BenchmarkGamma(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Gamma(2.5, 1)
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(100)
	}
}
