package main

import "testing"

func seq1(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Reverse order: percentile must sort a copy.
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.5, 50},   // ceil(50) = 50
		{100, 0.9, 90},   // ceil(90) = 90, 10 beyond
		{101, 0.5, 51},   // ceil(50.5) = 51
		{20, 0.5, 10},    // ceil(10) = 10, 10 beyond
		{150, 0.9, 135},  // ceil(135) = 135
		{1000, 0.001, 1}, // ceil(1) = 1
		{1000, 0, 1},     // rank clamped up to 1
	}
	for _, c := range cases {
		xs := seq1(c.n)
		got, err := percentile(xs, c.q)
		if err != nil {
			t.Errorf("p%g of %d: %v", 100*c.q, c.n, err)
			continue
		}
		if got != c.want {
			t.Errorf("p%g of %d = %v, want %v", 100*c.q, c.n, got, c.want)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("percentile reordered its input")
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	cases := []struct {
		n int
		q float64
	}{
		{99, 0.9},  // rank 90, 9 beyond
		{19, 0.5},  // rank 10, 9 beyond
		{100, 1},   // rank 100, none beyond
		{50, 0.99}, // rank 50, none beyond
		{0, 0.5},   // empty
	}
	for _, c := range cases {
		if v, err := percentile(seq1(c.n), c.q); err == nil {
			t.Errorf("p%g of %d = %v, want a refusal", 100*c.q, c.n, v)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 4 = %v, want the lower middle 2", got)
	}
}
