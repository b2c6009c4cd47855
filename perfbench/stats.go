package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it. It sorts xs in place. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the middle sample of xs, or the mean of the two
// middle samples for an even count. It sorts xs in place. An empty
// slice yields 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0, so a layer with no work
// in the window reports zero instead of NaN (which JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
