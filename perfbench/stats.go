package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count). xs is not modified. An empty input has no median: 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third quartile
// of xs by the method of Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so the benchmark's own spreads read the same
// as those computed from its output. It needs at least two values; one
// value is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the p-th percentile of xs (0 < p <= 100) by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The small allowance keeps a product such as 99.9% of 10000, which float
// arithmetic puts a hair above 9990, from rounding up to the next rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// tailLadder lists the percentiles a tail timing may be reported at, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond samples strictly beyond its nearest rank among n samples,
// so a reported tail is backed by that many observations. ok is false when
// not even the median qualifies.
func tailPercentile(n, minBeyond int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// failedRatio is failed ÷ attempted. Its base is every operation started,
// whether it errored, failed a check or passed: an operation that never
// finished counts against the ratio rather than leaving it.
func failedRatio(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// ms converts a duration to milliseconds for reporting.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts a sample of durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
