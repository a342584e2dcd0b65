package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the exact nearest-rank q-quantile (0 < q <= 1) of
// the raw samples: the smallest sample with at least q·n samples at or
// below it. No interpolation and no buckets, so p99 is a value that was
// actually observed. It sorts xs in place and returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median is percentile(xs, 0.5) on a copy, leaving xs in input order.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// secs converts durations to float seconds, in order.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
