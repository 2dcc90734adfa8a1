package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of an ascending
// slice by the nearest-rank rule: the smallest value with at least p%
// of the sample at or below it. It never interpolates, so every
// reported latency is one that was actually observed.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// band is a percentile smoothed over its neighbours in rank: the mean
// of the ascending slice's values between the lo-th and the hi-th
// percentile. Where latencies cluster in a few groups (sim-sweep: 22
// experiments of fixed, very different cost) a single rank jumps from
// one group to the next between runs; the mean across the band moves
// only as far as the groups do.
func band(sorted []int64, lo, hi float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	a := int(lo / 100 * float64(len(sorted)))
	b := int(math.Ceil(hi / 100 * float64(len(sorted))))
	a = min(a, len(sorted)-1)
	b = max(min(b, len(sorted)), a+1)
	var sum float64
	for _, v := range sorted[a:b] {
		sum += float64(v)
	}
	return sum / float64(b-a)
}

// median returns the middle of v (mean of the two middle values for an
// even count). v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v by the
// exclusive method, the one Python's statistics.quantiles(v, n=4)
// uses, so spreads printed here match the acceptance driver's.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
