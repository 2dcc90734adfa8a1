package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRecorderCollectsAndOrders(t *testing.T) {
	r := NewRecorder(0)
	r.Add(Span{Name: "b", Track: "drone-1", StartS: 2, EndS: 3})
	r.Add(Span{Name: "a", Track: "drone-0", StartS: 1, EndS: 2, Category: "network"})
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	spans := r.Spans()
	if spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("order: %+v", spans)
	}
}

func TestRecorderRejectsInvalid(t *testing.T) {
	r := NewRecorder(0)
	r.Add(Span{Name: "", Track: "x", StartS: 0, EndS: 1})
	r.Add(Span{Name: "x", Track: "", StartS: 0, EndS: 1})
	r.Add(Span{Name: "x", Track: "x", StartS: 2, EndS: 1})
	r.Mark(Instant{Name: ""})
	if r.Len() != 0 {
		t.Fatalf("invalid spans accepted: %d", r.Len())
	}
}

func TestRecorderLimitAndDrops(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Add(Span{Name: "s", Track: "t", StartS: float64(i), EndS: float64(i) + 1})
	}
	if r.Len() != 2 || r.dropped != 3 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.dropped)
	}
}

// TestRecorderInstantLimitAndDrops is the regression test for Mark
// growing without bound: instants must honour the same retention limit
// and dropped accounting as spans.
func TestRecorderInstantLimitAndDrops(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Mark(Instant{Name: "fail", Track: "t", AtS: float64(i)})
	}
	if len(r.instants) != 2 || r.droppedInstants != 3 {
		t.Fatalf("instants=%d dropped=%d, want 2/3", len(r.instants), r.droppedInstants)
	}
	// Spans and instants are limited independently.
	r.Add(Span{Name: "s", Track: "t", StartS: 0, EndS: 1})
	if r.Len() != 1 || r.dropped != 0 {
		t.Fatalf("span accounting disturbed: len=%d dropped=%d", r.Len(), r.dropped)
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRecorder(0)
	r.Add(Span{Name: "task", Category: "execution", Track: "drone-0",
		StartS: 1.5, EndS: 2.0, Args: map[string]string{"app": "S1"}})
	r.Add(Span{Name: "upload", Category: "network", Track: "server-0", StartS: 1.0, EndS: 1.4})
	r.Mark(Instant{Name: "device-failure", Track: "drone-0", AtS: 3.0})
	r.Mark(Instant{Name: "repartition", AtS: 3.5, Global: true})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	// 2 thread_name metadata + 2 spans + 2 instants.
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}
	var sawMeta, sawSpan, sawInstant bool
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			sawMeta = true
		case "X":
			sawSpan = true
			if ev["name"] == "task" {
				if ev["ts"].(float64) != 1.5e6 || ev["dur"].(float64) != 0.5e6 {
					t.Fatalf("span timing: %v", ev)
				}
			}
		case "i":
			sawInstant = true
		}
	}
	if !sawMeta || !sawSpan || !sawInstant {
		t.Fatalf("missing event kinds: meta=%v span=%v instant=%v", sawMeta, sawSpan, sawInstant)
	}
}

// TestChromeTraceGolden pins the exact serialised output: metadata
// lanes in sorted track order with stable ids, span/instant field
// layout, track-less instants on TID 0, and the in-band truncation
// marker with dropped-span/instant accounting. Any format drift —
// intentional or not — shows up as a byte diff here.
func TestChromeTraceGolden(t *testing.T) {
	r := NewRecorder(2)
	// Tracks arrive in non-sorted order; lanes must still come out sorted.
	r.Add(Span{Name: "exec", Category: "execution", Track: "runtime",
		StartS: 0.5, EndS: 1.5, Args: map[string]string{"trace": "t-1"}})
	r.Add(Span{Name: "serve", Category: "network", Track: "gateway", StartS: 0, EndS: 2})
	r.Add(Span{Name: "over", Track: "gateway", StartS: 2, EndS: 3}) // beyond limit: dropped
	r.Mark(Instant{Name: "failover", AtS: 1.25, Global: true})      // track-less: TID 0
	r.Mark(Instant{Name: "elected", Track: "ctrl", AtS: 0.25})
	r.Mark(Instant{Name: "late", AtS: 9}) // beyond limit: dropped

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"ctrl"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"gateway"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":3,"args":{"name":"runtime"}},` +
		`{"name":"exec","cat":"execution","ph":"X","ts":500000,"dur":1000000,"pid":1,"tid":3,"args":{"trace":"t-1"}},` +
		`{"name":"serve","cat":"network","ph":"X","ts":0,"dur":2000000,"pid":1,"tid":2},` +
		`{"name":"failover","ph":"i","ts":1250000,"pid":1,"tid":0,"s":"g"},` +
		`{"name":"elected","ph":"i","ts":250000,"pid":1,"tid":1,"s":"t"},` +
		`{"name":"trace truncated","ph":"i","ts":2000000,"pid":1,"tid":0,"s":"g",` +
		`"args":{"dropped_instants":"1","dropped_spans":"1"}}]` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// A complete trace must not carry the truncation marker: the golden
// shape of the pre-existing export is dropped-accounting free.
func TestChromeTraceNoTruncationMarkerWhenComplete(t *testing.T) {
	r := NewRecorder(0)
	r.Add(Span{Name: "s", Track: "t", StartS: 0, EndS: 1})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "trace truncated") {
		t.Fatalf("complete trace carries truncation marker: %s", buf.String())
	}
}

func TestSummary(t *testing.T) {
	r := NewRecorder(0)
	r.Add(Span{Name: "a", Category: "network", Track: "t", StartS: 0, EndS: 2})
	r.Add(Span{Name: "b", Category: "network", Track: "t", StartS: 2, EndS: 3})
	r.Add(Span{Name: "c", Track: "t", StartS: 0, EndS: 1})
	s := r.Summary()
	if !strings.Contains(s, "network") || !strings.Contains(s, "2 spans") {
		t.Fatalf("summary = %q", s)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add(Span{Name: "s", Track: "t", StartS: 0, EndS: 1})
			}
		}()
	}
	wg.Wait()
	if r.Len() != 1600 {
		t.Fatalf("len = %d", r.Len())
	}
}
