package runtime

import (
	"context"
	"errors"
	"testing"
	"time"

	"hivemind/internal/stats"
	"hivemind/internal/trace"
)

func TestTaskEnvelopeV2RoundTrip(t *testing.T) {
	sent := time.Unix(1700000000, 123456789)
	sc := trace.SpanContext{TraceID: "task-9", Parent: 42}
	raw := EncodeTaskTraced("task-9", sc, sent, []byte("payload"))
	env, body, ok := DecodeTaskEnvelope(raw)
	if !ok {
		t.Fatal("v2 envelope not recognised")
	}
	if env.ID != "task-9" || env.Trace != sc || env.SentAtNS != sent.UnixNano() {
		t.Fatalf("envelope = %+v", env)
	}
	if string(body) != "payload" {
		t.Fatalf("body = %q", body)
	}
}

// EncodeTask writes the same envelope with a zero trace context and no
// send timestamp: it must decode with no trace state.
func TestTaskEnvelopeAcceptsV1(t *testing.T) {
	raw := EncodeTask("legacy", []byte("data"))
	env, body, ok := DecodeTaskEnvelope(raw)
	if !ok || env.ID != "legacy" || string(body) != "data" {
		t.Fatalf("untraced decode: ok=%v env=%+v body=%q", ok, env, body)
	}
	if env.Trace.TraceID != "" || env.SentAtNS != 0 {
		t.Fatalf("untraced envelope grew trace state: %+v", env)
	}
}

func TestTaskEnvelopeBareAndTruncated(t *testing.T) {
	env, body, ok := DecodeTaskEnvelope([]byte("just bytes"))
	if ok || env.ID != "" || string(body) != "just bytes" {
		t.Fatalf("bare payload: ok=%v env=%+v body=%q", ok, env, body)
	}
	// Every truncation of an envelope's header must decode without
	// panicking and hand the raw bytes back untouched.
	full := EncodeTaskTraced("id", trace.SpanContext{TraceID: "tr"}, time.Now(), []byte("p"))
	headerLen := len(full) - 1 // last byte is payload
	for cut := len(taskMagic) + 2; cut < headerLen; cut++ {
		truncated := full[:cut]
		env, got, ok := DecodeTaskEnvelope(truncated)
		if ok {
			t.Fatalf("truncated header (%d bytes) decoded: %+v", cut, env)
		}
		if string(got) != string(truncated) {
			t.Fatalf("truncated decode mangled payload: %q", got)
		}
	}
}

// FuzzDecodeTaskEnvelope checks the decoder never panics, returns
// arbitrary non-envelope input unchanged, rejects every truncation of a
// decoded header the same way, and that EncodeTaskTraced reproduces
// every input it accepts byte for byte.
func FuzzDecodeTaskEnvelope(f *testing.F) {
	traced := EncodeTaskTraced("id", trace.SpanContext{TraceID: "tr"}, time.Unix(0, 42), []byte("p"))
	for cut := 0; cut <= len(traced); cut++ {
		f.Add(traced[:cut])
	}
	f.Add(EncodeTaskTraced("task-9", trace.SpanContext{TraceID: "task-9", Parent: 42}, time.Unix(1700000000, 123456789), []byte("payload")))
	f.Add(EncodeTask("legacy", []byte("data")))
	f.Add(EncodeTask("", nil))
	f.Add([]byte("just bytes"))
	f.Add([]byte("HMT2\xff\xff"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := append([]byte(nil), raw...)
		env, payload, ok := DecodeTaskEnvelope(raw)
		if string(raw) != string(in) {
			t.Fatalf("decoder wrote to its input")
		}
		if !ok {
			if env != (TaskEnvelope{}) || string(payload) != string(raw) {
				t.Fatalf("rejected input: env=%+v payload=%q, want zero env and %q", env, payload, raw)
			}
			return
		}
		if re := EncodeTaskTraced(env.ID, env.Trace, time.Unix(0, env.SentAtNS), payload); string(re) != string(raw) {
			t.Fatalf("re-encode of %+v = %q, want %q", env, re, raw)
		}
		if id, body, ok := DecodeTask(raw); !ok || id != env.ID || string(body) != string(payload) {
			t.Fatalf("DecodeTask = %q, %q, %v; envelope view %+v, %q", id, body, ok, env, payload)
		}
		for cut := 0; cut < len(raw)-len(payload); cut++ {
			if env, got, ok := DecodeTaskEnvelope(raw[:cut]); ok || string(got) != string(raw[:cut]) {
				t.Fatalf("header cut at %d: ok=%v env=%+v payload=%q", cut, ok, env, got)
			}
		}
	})
}

func TestStageClockNilSafe(t *testing.T) {
	var c *stageClock
	c.add(stats.StageDataIO, time.Second)
	c.track(stats.StageExecution)()
	if c.get(stats.StageDataIO) != 0 {
		t.Fatal("nil clock accumulated")
	}
	var tt *taskTrace
	if tt.stages() != nil {
		t.Fatal("nil taskTrace has stages")
	}
	if tt.span("s", "c", "t") != nil {
		t.Fatal("nil taskTrace opened a span")
	}
}

func TestStageClockAccumulates(t *testing.T) {
	c := newStageClock()
	c.add(stats.StageDataIO, 10*time.Millisecond)
	c.add(stats.StageDataIO, 5*time.Millisecond)
	c.add(stats.StageExecution, -time.Second) // negative: ignored
	if got := c.get(stats.StageDataIO); got < 0.0149 || got > 0.0151 {
		t.Fatalf("dataio = %g, want 0.015", got)
	}
	if c.get(stats.StageExecution) != 0 {
		t.Fatal("negative duration charged")
	}
}

func TestTraceCallObserverLinksEnvelopeTrace(t *testing.T) {
	rec := trace.NewRecorder(0)
	obs := TraceCallObserver(trace.NewLive(rec))
	payload := EncodeTaskTraced("task-5", trace.SpanContext{TraceID: "task-5"}, time.Now(), []byte("x"))
	done := obs("pipeline", payload)
	done(errors.New("boom"))
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	s := spans[0]
	if s.Name != "call pipeline" || s.Track != "rpc" || s.Args["trace"] != "task-5" || s.Args["error"] != "boom" {
		t.Fatalf("span = %+v", s)
	}
	// Nil tracer: observer must be inert, returning a nil done callback.
	if d := TraceCallObserver(nil)("m", payload); d != nil {
		t.Fatal("nil tracer produced a done callback")
	}
}

func TestTraceServerInterceptorTimesHandler(t *testing.T) {
	rec := trace.NewRecorder(0)
	icept := TraceServerInterceptor(trace.NewLive(rec), "rpc")
	payload := EncodeTaskTraced("task-6", trace.SpanContext{TraceID: "task-6"}, time.Now(), []byte("x"))
	out, err := icept(context.Background(), "pipeline", payload,
		func(ctx context.Context, p []byte) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(out) != "ok" {
		t.Fatalf("interceptor altered result: %q %v", out, err)
	}
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Name != "serve pipeline" || spans[0].Args["trace"] != "task-6" {
		t.Fatalf("spans = %+v", spans)
	}
}
