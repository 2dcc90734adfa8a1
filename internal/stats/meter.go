package stats

import "math"

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

// Gauge tracks a level that steps up and down (active tasks, live
// containers) and remembers its peak. The zero value is a gauge at
// level zero.
type Gauge struct {
	cur float64
	max float64
}

// Inc adjusts the level by delta.
func (g *Gauge) Inc(delta float64) {
	g.cur += delta
	if g.cur > g.max {
		g.max = g.cur
	}
}

// Max returns the highest level ever reached.
func (g *Gauge) Max() float64 { return g.max }
