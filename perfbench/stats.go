package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: with fewer, the "percentile" is one or two outliers.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (the mean of the two middle values for an even count); 0 for
// no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-th percentile (0 < p < 1) of xs
// and whether it may be reported: only when at least minBeyond samples lie
// strictly above its rank. With n samples the rank is ceil(p·n), so p90
// needs n ≥ 100 and p99 needs n ≥ 1000.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	s := sortedCopy(xs)
	return s[rank-1], n-rank >= minBeyond
}

// quartiles returns the first quartile, median and third quartile of xs by
// the same method as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here match the ones a Python
// reader computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// CPython's exclusive method verbatim: 1-based position i·(n+1)/4,
		// the lower index clamped to 1..n-1, then linear inter- or
		// extrapolation between the two neighbours.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
