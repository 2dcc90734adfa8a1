// Package metrics is a small, goroutine-safe metrics registry for the
// live substrate: counters, gauges, histograms (stats.Sample) and rate
// meters (stats.Meter) behind one mutex, with a deterministic text
// exposition format and an http.Handler. It is the stack's one metrics
// sink: the simulated and live controllers, gateway, store, WAL and
// ingress all report into a *Registry, so one registry absorbs gateway
// events, controller counters and application metrics alike.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"hivemind/internal/stats"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use. The recording
// methods (Add, Inc, CountEvent, SetGauge, Observe, MeterAdd) are
// no-ops on a nil *Registry, so a layer with no registry attached
// reports nowhere without guarding each call.
type Registry struct {
	mu         sync.Mutex
	epoch      time.Time
	counters   map[string]float64
	gauges     map[string]float64
	gaugeFuncs map[string]func() float64
	hists      map[string]*stats.Sample
	meters     map[string]*stats.Meter
}

// NewRegistry returns an empty registry anchored at the current wall
// clock (meters bucket relative to it).
func NewRegistry() *Registry {
	return &Registry{
		epoch:      time.Now(),
		counters:   map[string]float64{},
		gauges:     map[string]float64{},
		gaugeFuncs: map[string]func() float64{},
		hists:      map[string]*stats.Sample{},
		meters:     map[string]*stats.Meter{},
	}
}

// Add increments a counter by v.
func (r *Registry) Add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// Inc increments a counter by 1.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// CountEvent increments a counter by 1.
func (r *Registry) CountEvent(name string) { r.Add(name, 1) }

// Counter returns a counter's value (0 if never written).
func (r *Registry) Counter(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge records the current level of a named gauge, replacing any
// lazy gauge registered under the same name.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.gaugeFuncs, name)
	r.gauges[name] = v
	r.mu.Unlock()
}

// GaugeFunc registers a lazy gauge: fn is sampled at read time (Gauge,
// WriteText) rather than pushed, so live levels — queue depths,
// pending-job counts — stay current without a publisher goroutine. A
// later SetGauge or GaugeFunc under the same name replaces it. fn must
// not call back into the registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	delete(r.gauges, name)
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Gauge returns a gauge's last level (0 if never set), sampling lazy
// gauges registered via GaugeFunc.
func (r *Registry) Gauge(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fn, ok := r.gaugeFuncs[name]; ok {
		return fn()
	}
	return r.gauges[name]
}

// Observe adds one observation to a named histogram.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = &stats.Sample{}
		r.hists[name] = h
	}
	h.Add(v)
	r.mu.Unlock()
}

// Histogram returns a snapshot copy of a named histogram (empty sample
// if never observed).
func (r *Registry) Histogram(name string) *stats.Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &stats.Sample{}
	if h, ok := r.hists[name]; ok {
		out.AddAll(h.Values()...)
	}
	return out
}

// meterBucket is the fixed meter resolution: 1 s buckets, the same
// granularity the paper's bandwidth/active-task curves use.
const meterBucket = 1.0

// MeterAdd records amount on a named rate meter at the current wall
// clock (seconds since the registry's epoch, 1 s buckets).
func (r *Registry) MeterAdd(name string, amount float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	m, ok := r.meters[name]
	if !ok {
		m = stats.NewMeter(meterBucket)
		r.meters[name] = m
	}
	m.Add(time.Since(r.epoch).Seconds(), amount)
	r.mu.Unlock()
}

// MeterRates returns the per-second rate sample of a named meter,
// clipped to the elapsed interval (empty if never written).
func (r *Registry) MeterRates(name string) *stats.Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.meters[name]; ok {
		return m.RateSample(time.Since(r.epoch).Seconds())
	}
	return &stats.Sample{}
}

// WriteText renders every metric in a deterministic line-oriented text
// exposition, sorted by kind then name:
//
//	counter <name> <value>
//	gauge <name> <value>
//	histogram <name> count <n> mean <m> p50 <v> p95 <v> p99 <v> max <v>
//	meter <name> total <t> rate_mean <v> rate_p99 <v>
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	elapsed := time.Since(r.epoch).Seconds()

	for _, name := range sortedKeys(r.counters) {
		if _, err := fmt.Fprintf(w, "counter %s %g\n", name, r.counters[name]); err != nil {
			return err
		}
	}
	gauges := make(map[string]float64, len(r.gauges)+len(r.gaugeFuncs))
	for name, v := range r.gauges {
		gauges[name] = v
	}
	for name, fn := range r.gaugeFuncs {
		gauges[name] = fn()
	}
	for _, name := range sortedKeys(gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %g\n", name, gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		if _, err := fmt.Fprintf(w, "histogram %s count %d mean %g p50 %g p95 %g p99 %g max %g\n",
			name, h.N(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.meters) {
		m := r.meters[name]
		rates := m.RateSample(elapsed)
		if _, err := fmt.Fprintf(w, "meter %s total %g rate_mean %g rate_p99 %g\n",
			name, m.Total(), rates.Mean(), rates.Percentile(99)); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the text exposition over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteText(w)
	})
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
