package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[(i*7)%n] = float64(i + 1) // 1..n, out of order
	}
	return xs
}

// The spreads this program prints must be the spreads the pipeline computes
// with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(5), 1.5, 4.5},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
		{[]float64{4.2, 4.0, 4.4, 4.1, 9.0, 4.3, 4.25, 4.05, 4.15, 4.35}, 4.0875, 4.3625},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := iqrShare(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"--trace", "-seed", "3"}, []string{"-trace=1", "-seed", "3"}},
		{[]string{"--workload", "warm_edit", "--trace", "0"}, []string{"--workload", "warm_edit", "--trace", "0"}},
		{[]string{"--trace", "1", "--seed", "2"}, []string{"--trace", "1", "--seed", "2"}},
	} {
		got := normalizeArgs(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}
