package stats

import (
	"fmt"
	"math"
	"sort"
)

// Meter accumulates a quantity (bytes, tasks, joules) into fixed-width
// time buckets, producing the rate time-series behind the paper's
// bandwidth-utilization and active-task figures.
type Meter struct {
	bucket  float64 // bucket width, seconds
	buckets []float64
	total   float64
}

// NewMeter creates a meter with the given bucket width in seconds.
func NewMeter(bucketWidth float64) *Meter {
	if bucketWidth <= 0 {
		panic("stats: meter bucket width must be positive")
	}
	return &Meter{bucket: bucketWidth}
}

// Add records amount at time t (seconds).
func (m *Meter) Add(t, amount float64) {
	if t < 0 {
		t = 0
	}
	idx := int(t / m.bucket)
	for len(m.buckets) <= idx {
		m.buckets = append(m.buckets, 0)
	}
	m.buckets[idx] += amount
	m.total += amount
}

// AddSpread records amount spread uniformly over [t0, t1).
func (m *Meter) AddSpread(t0, t1, amount float64) {
	if t1 <= t0 {
		m.Add(t0, amount)
		return
	}
	span := t1 - t0
	first := int(t0 / m.bucket)
	last := int(t1 / m.bucket)
	for b := first; b <= last; b++ {
		lo := math.Max(t0, float64(b)*m.bucket)
		hi := math.Min(t1, float64(b+1)*m.bucket)
		if hi > lo {
			m.Add(lo, amount*(hi-lo)/span)
		}
	}
}

// Total returns the sum of everything recorded.
func (m *Meter) Total() float64 { return m.total }

// RateSample returns the bucket rates as a Sample, for percentile
// queries (e.g. p99 bandwidth in Fig. 14b). Buckets after `until`
// seconds are ignored if until > 0; the bucket straddling `until` is
// divided by the covered interval only, not the full bucket width, so
// a run ending mid-bucket does not deflate its tail rate.
func (m *Meter) RateSample(until float64) *Sample {
	s := &Sample{}
	for i, v := range m.buckets {
		lo := float64(i) * m.bucket
		if until > 0 && lo >= until {
			break
		}
		width := m.bucket
		if until > 0 && lo+width > until {
			width = until - lo
		}
		s.Add(v / width)
	}
	return s
}

// Gauge tracks a level that steps up and down over time (active tasks,
// live containers) and reports the time series of its value.
type Gauge struct {
	times  []float64
	values []float64
	cur    float64
	max    float64
}

// NewGauge returns a gauge at level zero.
func NewGauge() *Gauge { return &Gauge{} }

// Set records the level v at time t. Times must be non-decreasing: a
// regression would silently corrupt At (a binary search over the
// times), so it panics instead.
func (g *Gauge) Set(t, v float64) {
	if n := len(g.times); n > 0 && t < g.times[n-1] {
		panic(fmt.Sprintf("stats: gauge time regression: %g after %g", t, g.times[n-1]))
	}
	g.times = append(g.times, t)
	g.values = append(g.values, v)
	g.cur = v
	if v > g.max {
		g.max = v
	}
}

// Inc adjusts the level by delta at time t.
func (g *Gauge) Inc(t, delta float64) { g.Set(t, g.cur+delta) }

// Max returns the highest level ever recorded.
func (g *Gauge) Max() float64 { return g.max }

// At returns the level in effect at time t (0 before the first
// sample). Binary search over the non-decreasing times keeps At inside
// a resampling loop at O(log n) per query instead of O(n).
func (g *Gauge) At(t float64) float64 {
	idx := sort.Search(len(g.times), func(i int) bool { return g.times[i] > t })
	if idx == 0 {
		return 0
	}
	return g.values[idx-1]
}
