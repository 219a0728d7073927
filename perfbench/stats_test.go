package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{99, 0.9, 90, false}, // rank 90, 9 beyond
		{100, 0.9, 90, true}, // rank 90, 10 beyond
		{101, 0.9, 91, true}, // rank ceil(90.9) = 91, 10 beyond
		{19, 0.5, 10, false}, // rank 10, 9 beyond
		{20, 0.5, 10, true},  // rank 10, 10 beyond
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{5, 0.9, 5, false},
	} {
		got, ok := tailPercentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d p=%v: got (%v, %v), want (%v, %v)", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := tailPercentile(nil, 0.9); ok {
		t.Error("no samples must not yield a percentile")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		for _, c := range [][2]float64{{q1, tc.q1}, {q2, tc.q2}, {q3, tc.q3}} {
			if math.Abs(c[0]-c[1]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
				break
			}
		}
	}
}
