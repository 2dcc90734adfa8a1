package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hivemind/internal/trace"
)

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Inc("a")
	r.Add("a", 2)
	r.CountEvent("a")
	r.SetGauge("q", 3.5)
	r.SetGauge("q", 1.5)
	if got := r.Counter("a"); got != 4 {
		t.Fatalf("counter = %g, want 4", got)
	}
	if got := r.Gauge("q"); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	if r.Counter("missing") != 0 || r.Gauge("missing") != 0 {
		t.Fatal("missing metrics not zero")
	}
}

// A layer with no registry attached holds a nil *Registry and records
// through it unguarded.
func TestNilRegistryRecordsNothing(t *testing.T) {
	var r *Registry
	for name, record := range map[string]func(){
		"Add":        func() { r.Add("a", 1) },
		"Inc":        func() { r.Inc("a") },
		"CountEvent": func() { r.CountEvent("a") },
		"SetGauge":   func() { r.SetGauge("q", 1) },
		"Observe":    func() { r.Observe("lat", 1) },
		"MeterAdd":   func() { r.MeterAdd("reqs", 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s on a nil registry panicked: %v", name, p)
				}
			}()
			record()
		})
	}
}

func TestHistogramSnapshotIsolated(t *testing.T) {
	r := NewRegistry()
	r.Observe("lat", 1)
	r.Observe("lat", 3)
	h := r.Histogram("lat")
	if h.N() != 2 || h.Mean() != 2 {
		t.Fatalf("histogram n=%d mean=%g", h.N(), h.Mean())
	}
	h.Add(100) // mutating the snapshot must not leak back
	if r.Histogram("lat").N() != 2 {
		t.Fatal("snapshot aliases registry state")
	}
	if r.Histogram("missing").N() != 0 {
		t.Fatal("missing histogram not empty")
	}
}

func TestMeterRates(t *testing.T) {
	r := NewRegistry()
	r.MeterAdd("reqs", 1)
	r.MeterAdd("reqs", 1)
	rates := r.MeterRates("reqs")
	if rates.N() < 1 || rates.Sum() <= 0 {
		t.Fatalf("rates n=%d sum=%g", rates.N(), rates.Sum())
	}
	if r.MeterRates("missing").N() != 0 {
		t.Fatal("missing meter not empty")
	}
}

func TestWriteTextDeterministicAndSorted(t *testing.T) {
	r := NewRegistry()
	r.Inc("z-count")
	r.Inc("a-count")
	r.SetGauge("depth", 2)
	r.Observe("lat", 0.5)
	var b1, b2 strings.Builder
	if err := r.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	out := b1.String()
	if !strings.Contains(out, "counter a-count 1\n") ||
		!strings.Contains(out, "gauge depth 2\n") ||
		!strings.Contains(out, "histogram lat count 1") {
		t.Fatalf("exposition missing lines:\n%s", out)
	}
	if strings.Index(out, "counter a-count") > strings.Index(out, "counter z-count") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Inc("hits")
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 256)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "counter hits 1") {
		t.Fatalf("body = %q", buf[:n])
	}
}

func TestDebugMuxRoutes(t *testing.T) {
	r := NewRegistry()
	r.Inc("hits")
	rec := trace.NewRecorder(0)
	rec.Add(trace.Span{Name: "s", Track: "t", StartS: 0, EndS: 1})
	srv := httptest.NewServer(DebugMux(r, rec))
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics": "counter hits 1",
		"/trace":   `"thread_name"`,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(buf[:n]), want) {
			t.Fatalf("%s -> %d %q", path, resp.StatusCode, buf[:n])
		}
	}
}

// Rides the race detector: one registry absorbing concurrent gateway
// events is the production configuration.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Inc("events")
				r.SetGauge("depth", float64(i))
				r.Observe("lat", float64(i))
				r.MeterAdd("reqs", 1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Errorf("WriteText: %v", err)
			}
		}
	}()
	wg.Wait()
	if got := r.Counter("events"); got != 1600 {
		t.Fatalf("events = %g, want 1600", got)
	}
	if r.Histogram("lat").N() != 1600 {
		t.Fatalf("lat n = %d, want 1600", r.Histogram("lat").N())
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	depth := 3
	r.GaugeFunc("queue-depth", func() float64 { return float64(depth) })
	if got := r.Gauge("queue-depth"); got != 3 {
		t.Fatalf("lazy gauge = %g, want 3", got)
	}
	depth = 7
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "gauge queue-depth 7\n") {
		t.Fatalf("exposition missing sampled lazy gauge:\n%s", b.String())
	}
	// SetGauge under the same name replaces the lazy sampler.
	r.SetGauge("queue-depth", 1)
	depth = 99
	if got := r.Gauge("queue-depth"); got != 1 {
		t.Fatalf("replaced gauge = %g, want 1", got)
	}
}
