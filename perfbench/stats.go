package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (Python's statistics.quantiles "inclusive" method). xs is
// sorted in place. 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest whole percentile of an n-event sample that
// still has at least ten events beyond it, the tail a sample of that size
// supports. It is 0.5 (the median) when n is too small for anything more.
func tailQuantile(n int) float64 {
	p := math.Floor(100*(1-10/float64(n))) / 100
	if n <= 0 || p < 0.5 {
		return 0.5
	}
	return p
}

// tail returns the tail quantile of xs and the percentile used.
func tail(xs []float64) (value, pct float64) {
	q := tailQuantile(len(xs))
	return quantile(xs, q), 100 * q
}

// nsToMs converts int64 nanosecond samples to float milliseconds.
func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
