package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values for
// an even count), or NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of v:
// the smallest sample with at least p percent of the samples at or below
// it. len(v)-rank samples lie beyond the returned one.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercent picks the tail percentile a sample of n supports: the
// highest of p99 and p90 that leaves at least ten samples beyond it, and
// p90 when neither does (short runs of epochs or passes).
func tailPercent(n int) float64 {
	if n-int(math.Ceil(0.99*float64(n))) >= 10 {
		return 99
	}
	return 90
}

// windowed splits v into consecutive windows of size per (the last window
// takes the remainder when it holds at least per/2 samples, and is dropped
// otherwise) and returns the median over windows of each window's p-th
// percentile. One stalled window therefore cannot move the result.
func windowed(v []float64, per int, p float64) float64 {
	if per <= 0 || len(v) <= per {
		return percentile(v, p)
	}
	var ws []float64
	for lo := 0; lo < len(v); lo += per {
		hi := lo + per
		if hi > len(v) {
			if len(v)-lo < per/2 {
				break
			}
			hi = len(v)
		}
		ws = append(ws, percentile(v[lo:hi], p))
	}
	return median(ws)
}

// spread is the distance between the first and third quartile of v as a
// share of its median, the run-to-run spread the comparison rule uses.
// Fewer than four values fall back to (max-min)/median; one value has no
// spread.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	m := median(s)
	if m == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / math.Abs(m)
}

// quartiles returns the first and third quartile of sorted s by the
// exclusive method (the default of Python's statistics.quantiles).
func quartiles(s []float64) (q1, q3 float64) {
	at := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
