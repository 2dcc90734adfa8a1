// Package stats provides the measurement plumbing used by every
// experiment in the HiveMind reproduction: latency sample sets with
// percentile summaries (the paper reports medians, quartiles, p95 and
// p99 throughout), probability-density estimates for the violin plots,
// stage breakdowns (network / management / data-IO / execution), and
// time-series meters for bandwidth and active-task counts.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample is an append-only collection of float64 observations.
// The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.sum += x
}

// AddAll records many observations.
func (s *Sample) AddAll(xs ...float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Freeze pre-sorts the observations so every subsequent read-only query
// (percentiles, min/max, values) is safe for concurrent readers.
// Call it before sharing a Sample across goroutines — e.g. when a result
// is published through the experiment runner's memoized cache. Adding
// observations after Freeze un-freezes the sample.
func (s *Sample) Freeze() { s.ensureSorted() }

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Empty samples return 0.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median is Percentile(50).
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// CV returns the coefficient of variation (stddev/mean), the paper's
// proxy for performance predictability. Zero-mean samples return 0.
func (s *Sample) CV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.StdDev() / m
}

// Values returns a copy of the observations (sorted ascending).
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Summary is the five-number-plus summary used by the paper's box and
// violin plots.
type Summary struct {
	N                  int
	Mean               float64
	P25, P50, P75, P95 float64
	P99, CV            float64
}

// Summarize computes a Summary of the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N: s.N(), Mean: s.Mean(),
		P25: s.Percentile(25), P50: s.Percentile(50),
		P75: s.Percentile(75), P95: s.Percentile(95), P99: s.Percentile(99),
		CV: s.CV(),
	}
}

// String renders a compact human-readable summary.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g cv=%.3f",
		sm.N, sm.Mean, sm.P50, sm.P95, sm.P99, sm.CV)
}
