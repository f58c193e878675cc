package main

import (
	"math"
	"testing"
)

// spreadOf must agree with the contract's definition: Python's
// statistics.quantiles(xs, n=4) gives [2.75, 5.5, 8.25] for 1..10 and
// [1.5, 3.0, 6.5] for [1, 2, 3, 4, 9].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, (8.25 - 2.75) / 5.5},
		{[]float64{9, 1, 3, 2, 4}, (6.5 - 1.5) / 3},
		{[]float64{1, 2, 3}, 0},
	} {
		if got := spreadOf(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spreadOf(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
