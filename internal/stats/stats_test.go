package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Median() != 0 || s.Percentile(0) != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleBasicStats(t *testing.T) {
	var s Sample
	s.AddAll(4, 1, 3, 2, 5)
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %g", s.Mean())
	}
	if s.Median() != 3 {
		t.Fatalf("median = %g", s.Median())
	}
	if s.Percentile(0) != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %g/%g", s.Percentile(0), s.Max())
	}
	if !almostEqual(s.StdDev(), math.Sqrt(2), 1e-12) {
		t.Fatalf("stddev = %g", s.StdDev())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	s.AddAll(10, 20, 30, 40)
	if got := s.Percentile(0); got != 10 {
		t.Fatalf("p0 = %g", got)
	}
	if got := s.Percentile(100); got != 40 {
		t.Fatalf("p100 = %g", got)
	}
	if got := s.Percentile(50); got != 25 {
		t.Fatalf("p50 = %g, want 25", got)
	}
	// rank = 0.99*3 = 2.97 → 30*(0.03)+40*(0.97)
	if got := s.Percentile(99); !almostEqual(got, 39.7, 1e-9) {
		t.Fatalf("p99 = %g, want 39.7", got)
	}
}

func TestPercentileAfterInterleavedAdds(t *testing.T) {
	var s Sample
	s.AddAll(3, 1)
	_ = s.Median() // forces sort
	s.Add(2)       // must invalidate sorted flag
	if got := s.Median(); got != 2 {
		t.Fatalf("median after re-add = %g, want 2", got)
	}
}

func TestCV(t *testing.T) {
	var constant Sample
	constant.AddAll(5, 5, 5, 5)
	if constant.CV() != 0 {
		t.Fatalf("CV of constant = %g", constant.CV())
	}
	var spread Sample
	spread.AddAll(1, 9)
	if spread.CV() <= constant.CV() {
		t.Fatal("spread sample should have larger CV")
	}
}

func TestSummarize(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	sm := s.Summarize()
	if sm.N != 100 || sm.Mean != 50.5 {
		t.Fatalf("summary = %+v", sm)
	}
	if !almostEqual(sm.P50, 50.5, 1e-9) || !almostEqual(sm.P99, 99.01, 1e-9) {
		t.Fatalf("p50=%g p99=%g", sm.P50, sm.P99)
	}
	if sm.String() == "" {
		t.Fatal("summary string empty")
	}
}

// Property: percentiles are monotone in p and bounded by [min, max].
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev || v < s.Percentile(0) || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the median of a sorted odd-length sample equals the middle
// element.
func TestMedianMatchesMiddleElementProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		var clean []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean)%2 == 0 {
			clean = append(clean, 0)
		}
		var s Sample
		s.AddAll(clean...)
		sort.Float64s(clean)
		return s.Median() == clean[len(clean)/2]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownFractions(t *testing.T) {
	b := NewBreakdown()
	for i := 0; i < 10; i++ {
		b.Record(map[Stage]float64{
			StageNetwork:    30,
			StageManagement: 20,
			StageExecution:  50,
		})
	}
	if b.N() != 10 {
		t.Fatalf("N = %d", b.N())
	}
	fr := b.Fractions(50)
	if !almostEqual(fr[StageNetwork], 0.30, 1e-9) || !almostEqual(fr[StageExecution], 0.50, 1e-9) {
		t.Fatalf("fractions = %v", fr)
	}
	if !almostEqual(fr[StageDataIO], 0, 1e-9) {
		t.Fatalf("missing stage fraction = %g", fr[StageDataIO])
	}
	if !almostEqual(b.Total().Mean(), 100, 1e-9) {
		t.Fatalf("total mean = %g", b.Total().Mean())
	}
	if !almostEqual(b.MeanFraction(StageManagement), 0.2, 1e-9) {
		t.Fatalf("mean fraction = %g", b.MeanFraction(StageManagement))
	}
	if b.String() == "" {
		t.Fatal("empty breakdown string")
	}
}

func TestBreakdownEmptyFractions(t *testing.T) {
	b := NewBreakdown()
	fr := b.Fractions(50)
	for st, v := range fr {
		if v != 0 {
			t.Fatalf("stage %s fraction = %g on empty breakdown", st, v)
		}
	}
}

func TestMeterBucketsAndRates(t *testing.T) {
	m := NewMeter(1.0)
	m.Add(0.5, 10)
	m.Add(0.9, 10)
	m.Add(2.1, 30)
	rates := m.RateSample(0).Values()
	if len(rates) != 3 {
		t.Fatalf("buckets = %d", len(rates))
	}
	if rates[0] != 0 || rates[1] != 20 || rates[2] != 30 { // sorted
		t.Fatalf("rates = %v", rates)
	}
	if m.Total() != 50 {
		t.Fatalf("total = %g", m.Total())
	}
}

func TestMeterAddSpreadConservesMass(t *testing.T) {
	m := NewMeter(1.0)
	m.AddSpread(0.5, 3.5, 30)
	if !almostEqual(m.Total(), 30, 1e-9) {
		t.Fatalf("total = %g", m.Total())
	}
	// 0.5s in bucket0, 1s in b1, 1s in b2, 0.5s in b3, at 10 units/s.
	want := []float64{5, 10, 10, 5}
	for i, w := range want {
		if !almostEqual(m.buckets[i], w, 1e-9) {
			t.Fatalf("bucket %d = %g, want %g", i, m.buckets[i], w)
		}
	}
}

func TestMeterRateSampleWindow(t *testing.T) {
	m := NewMeter(1.0)
	m.Add(0.1, 5)
	m.Add(1.1, 7)
	m.Add(2.1, 9)
	s := m.RateSample(2)
	if s.N() != 2 || s.Max() != 7 {
		t.Fatalf("windowed sample n=%d max=%g", s.N(), s.Max())
	}
}

func TestGaugeLevels(t *testing.T) {
	var g Gauge
	g.Inc(4)
	g.Inc(-2)
	if g.cur != 2 || g.Max() != 4 {
		t.Fatalf("cur=%g max=%g", g.cur, g.Max())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "job", "median", "p99")
	tb.AddRow("S1", 1.5, 9.25)
	tb.AddRow("S10", 0.001234, 3)
	out := tb.String()
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	for _, want := range []string{"Fig X", "job", "median", "S10", "0.001234"} {
		if !contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TestMeterRateSampleClipsTrailingPartialBucket is the regression test
// for the Fig. 14b tail-rate bias: the bucket straddling `until` used
// to be divided by the full bucket width rather than the covered
// interval, deflating the rate of a run that ends mid-bucket.
func TestMeterRateSampleClipsTrailingPartialBucket(t *testing.T) {
	m := NewMeter(1.0)
	m.Add(0.5, 1)
	m.Add(2.1, 1) // bucket [2,3); the query window ends at 2.5
	s := m.RateSample(2.5)
	if s.N() != 3 {
		t.Fatalf("n = %d, want 3", s.N())
	}
	// The trailing bucket covers only [2, 2.5): rate = 1/0.5 = 2.
	if got := s.Max(); !almostEqual(got, 2, 1e-9) {
		t.Fatalf("trailing bucket rate = %g, want 2 (clipped to covered interval)", got)
	}
	// A window on a bucket boundary and the unbounded query keep the
	// full-width divisor.
	if got := m.RateSample(2).Max(); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("boundary window max = %g, want 1", got)
	}
	if got := m.RateSample(0).Max(); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("unbounded max = %g, want 1", got)
	}
}

func TestBreakdownMerge(t *testing.T) {
	a, b := NewBreakdown(), NewBreakdown()
	a.Record(map[Stage]float64{StageNetwork: 1, StageExecution: 3})
	b.Record(map[Stage]float64{StageNetwork: 2, StageDataIO: 4})
	a.Merge(b)
	a.Merge(nil)
	if a.N() != 2 {
		t.Fatalf("merged n = %d, want 2", a.N())
	}
	if got := a.Stage(StageNetwork).sum; got != 3 {
		t.Fatalf("network sum = %g, want 3", got)
	}
	if got := a.Total().sum; got != 10 {
		t.Fatalf("total sum = %g, want 10", got)
	}
}
