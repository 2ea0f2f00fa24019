package stats

import (
	"math"
	"testing"
	"testing/quick"

	"dreamsim/internal/rng"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary: %+v", s)
	}
	if math.Abs(s.Variance-32.0/7.0) > 1e-12 {
		t.Fatalf("variance: %v", s.Variance)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary: %+v", empty)
	}
	single := Summarize([]float64{3})
	if single.Variance != 0 || single.StdDev() != 0 {
		t.Fatalf("single summary: %+v", single)
	}
}

func TestPaired(t *testing.T) {
	a := []float64{10, 12, 9, 11, 13}
	b := []float64{7, 8, 6, 9, 8}
	r, err := Paired(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 5 || !r.AllPositive || r.AllNegative {
		t.Fatalf("paired: %+v", r)
	}
	// diffs: 3,4,3,2,5 -> mean 3.4
	if math.Abs(r.MeanDiff-3.4) > 1e-12 {
		t.Fatalf("mean diff: %v", r.MeanDiff)
	}
	if r.T <= 0 || r.CI95 <= 0 {
		t.Fatalf("t/CI: %+v", r)
	}
	// A strong effect: CI excludes zero.
	if r.MeanDiff-r.CI95 <= 0 {
		t.Fatalf("CI too wide for a clear effect: %+v", r)
	}

	// Reversed direction.
	r2, _ := Paired(b, a)
	if !r2.AllNegative || r2.MeanDiff >= 0 {
		t.Fatalf("reversed: %+v", r2)
	}

	// Errors.
	if _, err := Paired(a, b[:3]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Paired(a[:1], b[:1]); err == nil {
		t.Fatal("single pair accepted")
	}
}

func TestPairedMixedSigns(t *testing.T) {
	r, err := Paired([]float64{1, 5}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.AllPositive || r.AllNegative {
		t.Fatalf("mixed signs misreported: %+v", r)
	}
}

func TestTQuantileMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		q := tQuantile975(df)
		if q > prev {
			t.Fatalf("t quantile not non-increasing at df=%d: %v > %v", df, q, prev)
		}
		prev = q
	}
	if tQuantile975(0) != math.Inf(1) {
		t.Fatal("df=0 not infinite")
	}
	if tQuantile975(1000) != 1.96 {
		t.Fatal("normal limit wrong")
	}
}

// Property: for any paired samples, MeanDiff(a,b) == -MeanDiff(b,a).
func TestQuickPairedAntisymmetry(t *testing.T) {
	f := func(seed uint16, n uint8) bool {
		r := rng.New(uint64(seed))
		size := int(n%20) + 2
		a := make([]float64, size)
		b := make([]float64, size)
		for i := range a {
			a[i] = r.Float64() * 100
			b[i] = r.Float64() * 100
		}
		ab, err1 := Paired(a, b)
		ba, err2 := Paired(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(ab.MeanDiff+ba.MeanDiff) < 1e-9 &&
			math.Abs(ab.CI95-ba.CI95) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a summary's mean lies within [min, max] and its variance
// is not negative.
func TestQuickSummarizeBounds(t *testing.T) {
	f := func(xs []float64) bool {
		finite := xs[:0]
		for _, x := range xs {
			// Squared deviations overflow beyond ~1e154, far outside
			// any simulator metric's range.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) <= 1e100 {
				finite = append(finite, x)
			}
		}
		s := Summarize(finite)
		if s.N == 0 {
			return true
		}
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.Variance >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
