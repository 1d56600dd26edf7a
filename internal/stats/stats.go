// Package stats provides the small statistical toolkit the experiment
// harness needs: means with 95% confidence intervals (the paper reports
// "means with 95% confidence intervals", §6.1), histograms with geometric
// buckets for the Fig. 1 size distributions, and speedup ratios.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary holds the aggregate of a sample of measurements.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	// CI95 is the half-width of the 95% confidence interval of the mean
	// (normal approximation; the paper repeats runs >= 50 times).
	CI95 float64
	Min  float64
	Max  float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
		s.CI95 = 1.96 * s.StdDev / math.Sqrt(float64(len(xs)))
	}
	return s
}

// SummarizeDurations converts durations to milliseconds and summarizes.
func SummarizeDurations(ds []time.Duration) Summary {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return Summarize(xs)
}

// String renders "mean ± ci" with adaptive precision.
func (s Summary) String() string {
	if s.N == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3g ± %.2g", s.Mean, s.CI95)
}

// Speedup returns base/x — how many times faster x is than base.
// Returns 0 when x is 0.
func Speedup(base, x float64) float64 {
	if x == 0 {
		return 0
	}
	return base / x
}

// Histogram counts values into buckets; Bounds[i] is the inclusive upper
// bound of bucket i (the last bucket is open-ended).
type Histogram struct {
	Bounds []int
	Counts []int64
	Total  int64
}

// NewHistogram builds a histogram over the given ascending inclusive upper
// bounds; one extra open-ended bucket is appended.
func NewHistogram(bounds []int) *Histogram {
	if !sort.IntsAreSorted(bounds) {
		panic("stats: histogram bounds must be ascending")
	}
	return &Histogram{
		Bounds: append([]int(nil), bounds...),
		Counts: make([]int64, len(bounds)+1),
	}
}

// add counts one observation.
func (h *Histogram) add(x int) {
	h.Total++
	for i, b := range h.Bounds {
		if x <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

// AddAll counts a slice of observations.
func (h *Histogram) AddAll(xs []int) {
	for _, x := range xs {
		h.add(x)
	}
}

// BucketLabel names bucket i ("0-10", "11-100", ">1000").
func (h *Histogram) BucketLabel(i int) string {
	switch {
	case i == 0:
		return fmt.Sprintf("0-%d", h.Bounds[0])
	case i < len(h.Bounds):
		return fmt.Sprintf("%d-%d", h.Bounds[i-1]+1, h.Bounds[i])
	default:
		return fmt.Sprintf(">%d", h.Bounds[len(h.Bounds)-1])
	}
}

// Fraction returns the share of observations in bucket i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs with linear
// interpolation between order statistics. xs need not be sorted; an empty
// sample yields 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	// Edge cases first, so the function is safe even when called with a
	// sample the public wrappers did not pre-screen: an empty sample has
	// no order statistics (0), a single sample IS every quantile.
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Percentiles summarizes the tail of a latency sample. Values carry the
// unit of the sample (the serving layer records milliseconds).
type Percentiles struct {
	N             int
	P50, P90, P99 float64
	Max           float64
}

// ComputePercentiles extracts p50/p90/p99/max from xs.
func ComputePercentiles(xs []float64) Percentiles {
	if len(xs) == 0 {
		return Percentiles{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Percentiles{
		N:   len(sorted),
		P50: quantileSorted(sorted, 0.50),
		P90: quantileSorted(sorted, 0.90),
		P99: quantileSorted(sorted, 0.99),
		Max: sorted[len(sorted)-1],
	}
}

// String renders "p50=… p90=… p99=… max=… (n=…)".
func (p Percentiles) String() string {
	if p.N == 0 {
		return "n/a"
	}
	return fmt.Sprintf("p50=%.3g p90=%.3g p99=%.3g max=%.3g (n=%d)", p.P50, p.P90, p.P99, p.Max, p.N)
}

// EstimatePercentiles reads Percentiles off a bucketed histogram: n is its
// observation count and quantile its estimator, and every estimate is
// multiplied by scale (1e3 turns seconds into milliseconds). Max is
// quantile(1), the upper bound of the highest occupied bucket.
func EstimatePercentiles(n int64, quantile func(q float64) float64, scale float64) Percentiles {
	if n == 0 {
		return Percentiles{}
	}
	return Percentiles{
		N:   int(n),
		P50: scale * quantile(0.50),
		P90: scale * quantile(0.90),
		P99: scale * quantile(0.99),
		Max: scale * quantile(1),
	}
}
