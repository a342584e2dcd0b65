package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestPercentileIsAnObservedValue(t *testing.T) {
	// 1000 samples: p99 is the 990th smallest, with ten samples above
	// it, and never a bucket edge or an interpolated value.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64((i*7919)%1000) + 0.5
	}
	if got := percentile(xs, 0.99); got != 989.5 {
		t.Fatalf("p99 = %v, want 989.5", got)
	}
}

func TestPercentileEdges(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := percentile([]float64{3}, 0.99); got != 3 {
		t.Errorf("single: %v", got)
	}
	if got := percentile([]float64{3, 1}, 0); got != 1 {
		t.Errorf("q=0: %v", got)
	}
}

func TestMedianLeavesInputOrder(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Fatalf("even-length median = %v, want the lower middle 2", got)
	}
}

func TestSecs(t *testing.T) {
	got := secs([]time.Duration{1500 * time.Millisecond, 2 * time.Second})
	if len(got) != 2 || got[0] != 1.5 || got[1] != 2 {
		t.Fatalf("secs = %v", got)
	}
}
