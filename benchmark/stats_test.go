package main

import (
	"math"
	"testing"
)

func TestPickTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.5: 3, 0.9: 5, 0.2: 1, 1: 5} {
		if got := quantile(vals, q); got != want {
			t.Errorf("quantile(%v) = %g, want %g", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must be 0")
	}
	if vals[0] != 5 {
		t.Error("quantile must not reorder its input")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	want := (8.25 - 2.75) / 5.5
	if got := spread(vals); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
	if got, want := spread([]float64{2, 4, 4, 5, 7, 9, 11}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}
