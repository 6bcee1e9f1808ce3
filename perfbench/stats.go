package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyondTail is how many samples must lie strictly above a reported
// tail percentile: fewer, and the percentile is one or two outliers.
const minBeyondTail = 10

// p90 returns the nearest-rank 90th percentile of xs. ok is false when
// fewer than minBeyondTail samples lie strictly beyond it, in which
// case the percentile must not be reported.
func p90(xs []float64) (v float64, ok bool) {
	v = quantile(xs, 0.9)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, beyond >= minBeyondTail
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio divides, returning 0 for a zero denominator so a layer the
// workload never exercised reads 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fastTime and fastRate read a host-time metric from the fastest tenth
// of a run's operations: the 10th percentile of their host times, or
// the 90th percentile of their speeds. Other tenants of the host slow a
// share of operations that changes from run to run; the fast tail of
// the distribution moves far less between runs than its median does.
func fastTime(secs []float64) float64  { return quantile(secs, 0.1) }
func fastRate(rates []float64) float64 { return quantile(rates, 0.9) }

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}
