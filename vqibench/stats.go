package main

import (
	"math"
	"sort"
	"time"
)

// latencyLimit is the interactive latency bound: the p99 of queries,
// suggests and similar lookups must stay within it for an offered rate to
// count toward capacity. 100 ms is the classic limit for a
// direct-manipulation response to feel immediate.
const latencyLimit = 100 * time.Millisecond

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest candidate percentile that leaves at least
// ten samples beyond it in a sample of n, or 0 when even the median does
// not.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank position of the p-th percentile.
func rank(n int, p float64) int {
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place), or NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func deciles(xs []float64) []float64 {
	out := make([]float64, 9)
	for i := range out {
		out[i] = percentile(xs, float64(10*(i+1)))
	}
	return out
}
