package main

import (
	"math"
	"sort"
	"time"
)

// nearestRank returns the p-th percentile (0 < p <= 100) of vals by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it. vals need not be sorted; it is not modified. An empty slice
// yields NaN.
func nearestRank(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile among n
// sorted samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps p*n that is integral in exact arithmetic (99.9% of
	// 1000) from rounding up to the next rank.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// beyond counts the samples strictly above the nearest-rank p-th percentile
// position among n samples.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// median is the nearest-rank p50.
func median(vals []float64) float64 { return nearestRank(vals, 50) }

// mean returns the arithmetic mean, NaN for no values.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
