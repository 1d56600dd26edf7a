package main

import (
	"sort"

	"repro/internal/stats"
)

// Quantiles, medians and means come from repro/internal/stats; only what
// it does not have lives here.

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func mean(xs []float64) float64 { return stats.Summarize(xs).Mean }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so the
// spreads printed here are the ones the acceptance procedure computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return cut(1), cut(2), cut(3)
}

// highestTail is the highest percentile of a sample that still has at
// least ten observations beyond it — the tail a sample of that size
// supports — and its value; 50 when the sample supports none.
func highestTail(xs []float64) (pct, value float64) {
	for _, p := range []float64{99.99, 99.9, 99, 95, 90} {
		if float64(len(xs))*(100-p)/100 >= 10 {
			return p, stats.Quantile(xs, p/100)
		}
	}
	return 50, median(xs)
}
