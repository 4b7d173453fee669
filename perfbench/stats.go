package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method of Python's statistics.quantiles(n=4), so the
// spread printed here is the one the acceptance rule computes. With fewer
// than two values every quartile is the single value (or NaN when empty).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	n := len(s)
	at := func(k int) float64 { // k-th of the 3 cut points
		m := n + 1
		j := min(max(k*m/4, 1), n-1)
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), median(s), at(3)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN when empty.
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

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs; +Inf values (failed requests) sort last and count as misses.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
