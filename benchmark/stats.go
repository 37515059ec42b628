package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile reports the p-quantile of sorted, lowered as far as needed
// for at least ten samples to lie beyond it: a tail read off fewer samples is
// one slow request, not a percentile. It never goes below the median. used is
// the quantile actually reported.
func tailPercentile(sorted []float64, p float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, p
	}
	used = p
	if most := float64(n-10) / float64(n); most < used {
		used = most
	}
	if used < 0.5 {
		used = 0.5
	}
	return percentile(sorted, used), used
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
