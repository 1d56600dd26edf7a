package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.String() != "n/a" {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.StdDev != 0 || s.CI95 != 0 || s.Min != 5 || s.Max != 5 {
		t.Fatalf("single summary: %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(s.Mean, 5) {
		t.Fatalf("mean = %v", s.Mean)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if !almostEqual(s.StdDev, math.Sqrt(32.0/7.0)) {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeDurations(t *testing.T) {
	s := SummarizeDurations([]time.Duration{time.Millisecond, 3 * time.Millisecond})
	if !almostEqual(s.Mean, 2) {
		t.Fatalf("mean = %v ms", s.Mean)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(10, 2) != 5 {
		t.Fatal("speedup")
	}
	if Speedup(10, 0) != 0 {
		t.Fatal("speedup by zero must be 0")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int{10, 100, 1000})
	h.AddAll([]int{0, 5, 10, 11, 100, 101, 1000, 1001, 5000})
	want := []int64{3, 2, 2, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Total != 9 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.BucketLabel(0) != "0-10" || h.BucketLabel(1) != "11-100" || h.BucketLabel(3) != ">1000" {
		t.Fatalf("labels: %q %q %q", h.BucketLabel(0), h.BucketLabel(1), h.BucketLabel(3))
	}
	if !almostEqual(h.Fraction(0), 3.0/9.0) {
		t.Fatalf("fraction = %v", h.Fraction(0))
	}
}

func TestHistogramUnsortedBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram([]int{10, 5})
}

// Property: mean is within [min, max] and CI95 is non-negative.
func TestQuickSummaryBounds(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		s := Summarize(clean)
		if s.N == 0 {
			return true
		}
		return s.Mean >= s.Min-1e-6 && s.Mean <= s.Max+1e-6 && s.CI95 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram total equals the number of added observations and
// bucket counts sum to total.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(xs []uint16) bool {
		h := NewHistogram([]int{1, 10, 100, 1000})
		for _, x := range xs {
			h.Add(int(x))
		}
		var sum int64
		for _, c := range h.Counts {
			sum += c
		}
		return sum == h.Total && h.Total == int64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // unsorted on purpose
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %g", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %g", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %g", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25 = %g", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
}

// TestQuantileEdgeCases pins the empty and single-sample behavior all
// the way down to quantileSorted: an empty sample reports 0, a single
// sample is every quantile. EstimatePercentiles follows suit for an
// empty and a one-observation histogram.
func TestQuantileEdgeCases(t *testing.T) {
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got := Quantile(nil, q); got != 0 {
			t.Fatalf("empty Quantile(%g) = %g, want 0", q, got)
		}
		if got := quantileSorted(nil, q); got != 0 {
			t.Fatalf("empty quantileSorted(%g) = %g, want 0", q, got)
		}
		if got := Quantile([]float64{42}, q); got != 42 {
			t.Fatalf("single-sample Quantile(%g) = %g, want 42", q, got)
		}
		if got := quantileSorted([]float64{42}, q); got != 42 {
			t.Fatalf("single-sample quantileSorted(%g) = %g, want 42", q, got)
		}
	}
	p := ComputePercentiles([]float64{7})
	if p.N != 1 || p.P50 != 7 || p.P90 != 7 || p.P99 != 7 || p.Max != 7 {
		t.Fatalf("single-sample percentiles: %+v", p)
	}
	if got := EstimatePercentiles(0, func(float64) float64 { return 1 }, 1e3); got != (Percentiles{}) {
		t.Fatalf("empty estimate: %+v", got)
	}
	if got := EstimatePercentiles(1, func(float64) float64 { return 0.0035 }, 1e3); got.N != 1 ||
		!almostEqual(got.P50, 3.5) || !almostEqual(got.P99, 3.5) || !almostEqual(got.Max, 3.5) {
		t.Fatalf("single-sample estimate: %+v", got)
	}
}

func TestComputePercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	p := ComputePercentiles(xs)
	if p.N != 100 || p.Max != 100 {
		t.Fatalf("%+v", p)
	}
	if p.P50 < 50 || p.P50 > 51 || p.P99 < 99 || p.P99 > 100 {
		t.Fatalf("%+v", p)
	}
	if ComputePercentiles(nil).N != 0 {
		t.Fatal("empty percentiles must be zero")
	}
}
