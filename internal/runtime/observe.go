package runtime

import (
	"context"
	"encoding/binary"
	"sync"
	"time"

	"hivemind/internal/rpc"
	"hivemind/internal/stats"
	"hivemind/internal/trace"
)

// This file is the live-substrate observability layer (§4.7's
// application-progress monitoring on the real stack): a trace context
// carried in the gateway task envelope, a per-task stage clock that
// feeds the paper's four-stage latency decomposition (network /
// management / data-IO / execution, Figs. 3a/6b/12), and the
// client/server RPC interceptors that time each hop. Nothing here
// touches the RPC wire format — the context rides inside the opaque
// payload envelope.

// taskMagic prefixes the task envelope, which carries a task id, a
// trace context and a send timestamp ahead of the payload:
//
//	"HMT2" | u16 idLen | id | u16 traceLen | traceID |
//	u64 parentSpan | i64 sentAtUnixNano | payload
//
// The id lets a re-submitted chain call join the original task's
// checkpoints instead of forking a new one.
var taskMagic = []byte("HMT2")

// TaskEnvelope is the decoded header of an EncodeTask/EncodeTaskTraced
// payload.
type TaskEnvelope struct {
	// ID is the client-chosen task id ("" only if the encoder was given
	// an empty one).
	ID string
	// Trace is the propagated trace context (zero from EncodeTask).
	Trace trace.SpanContext
	// SentAtNS is the client's send timestamp (UnixNano; 0 from
	// EncodeTask, which the gateway reads as "unknown").
	// The gateway derives the network stage from it, so it is only
	// meaningful when client and gateway clocks agree — loopback and
	// NTP-disciplined fleets, which is what the live substrate runs on.
	SentAtNS int64
}

// EncodeTask wraps a chain payload with a task id. Clients that may
// retry across a controller failover send encoded payloads so the new
// primary deduplicates their chain against its checkpoints.
func EncodeTask(id string, payload []byte) []byte {
	return encodeTask(id, trace.SpanContext{}, 0, payload)
}

// DecodeTask splits an EncodeTask payload; ok is false for bare
// payloads (which get a gateway-generated task id).
func DecodeTask(raw []byte) (id string, payload []byte, ok bool) {
	env, payload, ok := DecodeTaskEnvelope(raw)
	return env.ID, payload, ok
}

// EncodeTaskTraced is EncodeTask plus a trace context and the send
// timestamp: the gateway additionally parents its spans under tc and
// charges the transfer delay to the network stage.
func EncodeTaskTraced(id string, tc trace.SpanContext, sentAt time.Time, payload []byte) []byte {
	return encodeTask(id, tc, sentAt.UnixNano(), payload)
}

func encodeTask(id string, tc trace.SpanContext, sentAtNS int64, payload []byte) []byte {
	out := make([]byte, 0, len(taskMagic)+2+len(id)+2+len(tc.TraceID)+8+8+len(payload))
	out = append(out, taskMagic...)
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(id)))
	out = append(out, l[:]...)
	out = append(out, id...)
	binary.BigEndian.PutUint16(l[:], uint16(len(tc.TraceID)))
	out = append(out, l[:]...)
	out = append(out, tc.TraceID...)
	var q [8]byte
	binary.BigEndian.PutUint64(q[:], tc.Parent)
	out = append(out, q[:]...)
	binary.BigEndian.PutUint64(q[:], uint64(sentAtNS))
	out = append(out, q[:]...)
	return append(out, payload...)
}

// DecodeTaskEnvelope splits a task payload. ok is false for bare or
// truncated payloads, which are returned unchanged with a zero
// envelope.
func DecodeTaskEnvelope(raw []byte) (env TaskEnvelope, payload []byte, ok bool) {
	n := len(taskMagic)
	if len(raw) < n+2 || string(raw[:n]) != string(taskMagic) {
		return TaskEnvelope{}, raw, false
	}
	rest := raw[n:]
	idLen := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < idLen+2 {
		return TaskEnvelope{}, raw, false
	}
	env.ID = string(rest[:idLen])
	rest = rest[idLen:]
	traceLen := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) < traceLen+16 {
		return TaskEnvelope{}, raw, false
	}
	env.Trace.TraceID = string(rest[:traceLen])
	rest = rest[traceLen:]
	env.Trace.Parent = binary.BigEndian.Uint64(rest[:8])
	env.SentAtNS = int64(binary.BigEndian.Uint64(rest[8:16]))
	return env, rest[16:], true
}

// stageClock accumulates one task's per-stage time from the
// instrumentation points it flows through (runtime execution, store
// exchanges, checkpoint I/O). Goroutine-safe: fan-out tiers report
// concurrently. All methods tolerate a nil receiver.
type stageClock struct {
	mu    sync.Mutex
	parts map[stats.Stage]float64
}

func newStageClock() *stageClock {
	return &stageClock{parts: make(map[stats.Stage]float64, len(stats.AllStages))}
}

// add charges d to a stage.
func (c *stageClock) add(st stats.Stage, d time.Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.mu.Lock()
	c.parts[st] += d.Seconds()
	c.mu.Unlock()
}

// track starts timing a stage; the returned func stops and charges it.
func (c *stageClock) track(st stats.Stage) func() {
	if c == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { c.add(st, time.Since(t0)) }
}

// get returns the accumulated seconds for a stage.
func (c *stageClock) get(st stats.Stage) float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parts[st]
}

// taskTrace carries a task's observability state down the invocation
// path via context: instrumentation points read it with taskTraceFrom
// and stay zero-cost when it is absent.
type taskTrace struct {
	tracer  *trace.Live
	clock   *stageClock
	traceID string
	parent  uint64 // span id the next layer's spans parent under
}

type taskTraceKey struct{}

func withTaskTrace(ctx context.Context, tt *taskTrace) context.Context {
	return context.WithValue(ctx, taskTraceKey{}, tt)
}

func taskTraceFrom(ctx context.Context) *taskTrace {
	tt, _ := ctx.Value(taskTraceKey{}).(*taskTrace)
	return tt
}

// stages returns the task's stage clock (nil-safe).
func (tt *taskTrace) stages() *stageClock {
	if tt == nil {
		return nil
	}
	return tt.clock
}

// span opens a child span of the task's current parent (nil when the
// task is untraced).
func (tt *taskTrace) span(name, category, track string) *trace.LiveSpan {
	if tt == nil {
		return nil
	}
	return tt.tracer.Start(name, category, track, trace.SpanContext{TraceID: tt.traceID, Parent: tt.parent})
}

// TraceCallObserver returns an rpc.CallObserver that times every
// outbound request as a span on the "rpc" lane, linked to the trace id
// found in the payload's task envelope (if any). Install it via
// rpc.FailoverOptions.Observer.
func TraceCallObserver(l *trace.Live) rpc.CallObserver {
	return func(method string, payload []byte) func(error) {
		env, _, _ := DecodeTaskEnvelope(payload)
		sp := l.Start("call "+method, string(stats.StageNetwork), "rpc", env.Trace)
		if sp == nil {
			return nil
		}
		return func(err error) {
			if err != nil {
				sp.SetArg("error", err.Error())
			}
			sp.End()
		}
	}
}

// TraceServerInterceptor returns an rpc.ServerInterceptor that times
// every inbound request as a span on the given lane, linked like
// TraceCallObserver. Install it via Server.SetInterceptor.
func TraceServerInterceptor(l *trace.Live, track string) rpc.ServerInterceptor {
	return func(ctx context.Context, method string, payload []byte, next rpc.HandlerCtx) ([]byte, error) {
		env, _, _ := DecodeTaskEnvelope(payload)
		sp := l.Start("serve "+method, string(stats.StageNetwork), track, env.Trace)
		out, err := next(ctx, payload)
		if err != nil {
			sp.SetArg("error", err.Error())
		}
		sp.End()
		return out, err
	}
}

// taskObservation times one gateway task end-to-end and feeds the
// gateway's tracer and breakdown on finish. A nil observation (tracing
// and breakdown both unconfigured) is inert.
type taskObservation struct {
	g       *Gateway
	span    *trace.LiveSpan
	clock   *stageClock
	trace   string
	start   time.Time
	network float64
}

// observeTask opens the gateway-layer span and threads a taskTrace
// through ctx so the runtime and store layers charge their stages to
// this task. traceID must be non-empty for traced tasks; the network
// stage is derived from the envelope's send timestamp (clamped at 0 —
// skewed clocks must not produce negative stages).
func (g *Gateway) observeTask(ctx context.Context, method, traceID string, env TaskEnvelope, start time.Time) (context.Context, *taskObservation) {
	if g.cfg.Tracer == nil && g.cfg.Breakdown == nil {
		return ctx, nil
	}
	o := &taskObservation{g: g, start: start, clock: newStageClock(), trace: traceID}
	if env.SentAtNS > 0 {
		if d := start.UnixNano() - env.SentAtNS; d > 0 {
			o.network = time.Duration(d).Seconds()
		}
	}
	o.span = g.cfg.Tracer.Start(method, string(stats.StageManagement), "gateway",
		trace.SpanContext{TraceID: traceID, Parent: env.Trace.Parent})
	ctx = withTaskTrace(ctx, &taskTrace{
		tracer:  g.cfg.Tracer,
		clock:   o.clock,
		traceID: traceID,
		parent:  o.span.ID(),
	})
	return ctx, o
}

// admission runs the gateway's admission gate (leadership check) timed
// as a controller-lane span: deciding whether this node may serve is
// controller work, so the trace shows the management hop explicitly.
func (o *taskObservation) admission(method string, gate func() error) error {
	if o == nil {
		return gate()
	}
	sp := o.g.cfg.Tracer.Start("admit "+method, string(stats.StageManagement), "controller",
		trace.SpanContext{TraceID: o.trace, Parent: o.span.ID()})
	err := gate()
	if err != nil {
		sp.SetArg("error", err.Error())
	}
	sp.End()
	return err
}

// finish closes the gateway span and records the four-stage breakdown.
// Management is computed by subtraction (total handler time minus
// data-IO minus execution), so the stage sums reconstruct the measured
// end-to-end latency exactly up to the response's return transfer.
// Only successful tasks feed the breakdown: redirects and failures
// would skew the latency decomposition the figures are calibrated on.
func (o *taskObservation) finish(err error) {
	if o == nil {
		return
	}
	total := time.Since(o.start).Seconds()
	dataio := o.clock.get(stats.StageDataIO)
	exec := o.clock.get(stats.StageExecution)
	mgmt := total - dataio - exec
	if mgmt < 0 {
		mgmt = 0
	}
	if err != nil {
		o.span.SetArg("error", err.Error())
	}
	o.span.End()
	if bd := o.g.cfg.Breakdown; bd != nil && err == nil {
		o.g.bdMu.Lock()
		bd.Record(map[stats.Stage]float64{
			stats.StageNetwork:    o.network,
			stats.StageManagement: mgmt,
			stats.StageDataIO:     dataio,
			stats.StageExecution:  exec,
		})
		o.g.bdMu.Unlock()
	}
}
