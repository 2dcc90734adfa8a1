package trace

import (
	"sync/atomic"
	"time"
)

// SpanContext is the propagated identity of a distributed trace: the
// task's trace id plus the span id of the caller's open span. It rides
// in the gateway task envelope (runtime.EncodeTaskTraced), never in the
// RPC wire format, so every layer of the live stack — gateway,
// controller, RPC hop, runtime — can hang its spans off one shared id.
type SpanContext struct {
	// TraceID groups every span of one end-to-end task. Empty means
	// "untraced"; receivers then mint their own id (usually the task id).
	TraceID string
	// Parent is the span id of the nearest enclosing span (0: root).
	Parent uint64
}

// Live adapts a Recorder to wall-clock instrumentation: the sim side
// records spans at virtual timestamps, the live substrate records them
// at seconds-since-epoch so both land in the same Chrome trace format.
// All methods are nil-receiver safe, so instrumented code paths need no
// "is tracing on?" branches.
type Live struct {
	rec    *Recorder
	epoch  time.Time
	nextID atomic.Uint64
}

// NewLive anchors a live tracer at the current wall clock. rec may be
// shared with other tracers and with direct Recorder users.
func NewLive(rec *Recorder) *Live {
	return &Live{rec: rec, epoch: time.Now()}
}

// Now returns seconds since the tracer's epoch.
func (l *Live) Now() float64 {
	if l == nil {
		return 0
	}
	return time.Since(l.epoch).Seconds()
}

// LiveSpan is one in-progress wall-clock span. End records it.
type LiveSpan struct {
	l     *Live
	span  Span
	id    uint64
	start time.Time
	ended atomic.Bool
}

// Start opens a span on the given lane. sc links the span into a
// distributed trace: its trace id and the parent span id are recorded
// as args ("trace", "span", "parent") so viewers and tests can group
// every layer's spans under one task. Returns nil on a nil tracer; all
// LiveSpan methods tolerate a nil receiver.
func (l *Live) Start(name, category, track string, sc SpanContext) *LiveSpan {
	if l == nil {
		return nil
	}
	s := &LiveSpan{l: l, start: time.Now()}
	s.id = l.nextID.Add(1)
	s.span = Span{
		Name:     name,
		Category: category,
		Track:    track,
		StartS:   s.start.Sub(l.epoch).Seconds(),
		Args:     map[string]string{"span": formatID(s.id)},
	}
	if sc.TraceID != "" {
		s.span.Args["trace"] = sc.TraceID
	}
	if sc.Parent != 0 {
		s.span.Args["parent"] = formatID(sc.Parent)
	}
	return s
}

// ID returns the span's id (0 for nil), used as Parent in child
// contexts.
func (s *LiveSpan) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetArg attaches a key/value shown in the trace viewer.
func (s *LiveSpan) SetArg(k, v string) {
	if s == nil || s.ended.Load() {
		return
	}
	s.span.Args[k] = v
}

// End closes the span and records it. Safe to call more than once; only
// the first call records.
func (s *LiveSpan) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.span.EndS = time.Since(s.l.epoch).Seconds()
	if s.span.EndS < s.span.StartS {
		s.span.EndS = s.span.StartS
	}
	s.l.rec.Add(s.span)
}

// Mark records a wall-clock instant (election won, device failed, ...).
func (l *Live) Mark(name, track string, args map[string]string, global bool) {
	if l == nil {
		return
	}
	l.rec.Mark(Instant{Name: name, Track: track, AtS: l.Now(), Args: args, Global: global})
}

// formatID renders span ids compactly without fmt on the hot path.
func formatID(id uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + id%10)
		id /= 10
		if id == 0 {
			return string(buf[i:])
		}
	}
}
