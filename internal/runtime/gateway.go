package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/stats"
	"hivemind/internal/store"
	"hivemind/internal/trace"
)

// TaskTracker mirrors in-flight chains into an external table — the
// controller replica's replicated task state (controller.Replica
// satisfies it), so standbys know what was running when the primary
// died.
type TaskTracker interface {
	TaskStarted(id, method string)
	TaskStep(id string, step int)
	TaskFinished(id string)
}

// GatewayConfig tunes the RPC front door's fault handling.
type GatewayConfig struct {
	// Timeout bounds a whole invocation or chain (0: no deadline beyond
	// the caller's cancellation).
	Timeout time.Duration
	// StepRespawns is how many times a failed chain step is respawned
	// before the error surfaces (§3.2; default 1 — respawn once,
	// mirroring the faas model's respawn-and-continue behaviour).
	StepRespawns int
	// RespawnDelay is the pause before a respawn, the live counterpart
	// of faas.Config.RespawnDelayS (default 120 ms there).
	RespawnDelay time.Duration
	// Checkpoints, when set, turns every exposed chain into a durable
	// task: the gateway write-ahead-records each step before dispatch
	// and commits outputs create-only, so a replacement primary can
	// re-dispatch orphans through Recover with exactly-once effects.
	Checkpoints *store.CheckpointLog
	// Admission, when set, gates every chain call — a controller
	// replica's Admission() returns rpc.NotLeaderError on standbys so
	// leader-following clients re-route instead of forking a chain.
	Admission func() error
	// Overload, when set, puts the gateway behind the bounded admission
	// queue (admission.go): work beyond MaxConcurrent waits in a FIFO
	// of at most QueueLen, and an arrival at a full queue is shed with
	// an rpc.ShedError carrying a retry-after hint.
	Overload *AdmissionConfig
	// OnFenced, when set, fires when a durable-chain write bounces off
	// the store's term fence — proof the controller replica fronted by
	// this gateway was deposed while the chain ran. Wire it to the
	// replica's StepDown so a healed old primary stops serving instead
	// of retrying behind the fence.
	OnFenced func()
	// Tracker, when set, mirrors in-flight chains into the replicated
	// task table.
	Tracker TaskTracker
	// Tracer, when set, records a span per task on the "gateway" lane
	// (plus an admission span on the "controller" lane), propagates the
	// task's trace context into the runtime and store layers, and turns
	// on the four-stage latency decomposition (Gateway.Breakdown).
	Tracer *trace.Live
}

// DefaultGatewayConfig mirrors the faas model's respawn calibration.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{
		Timeout:      0,
		StepRespawns: 1,
		RespawnDelay: 120 * time.Millisecond,
	}
}

// Gateway exposes a Runtime's functions over the RPC framework — the
// real edge→cloud invocation path: devices call the synthesized RPC
// APIs (internal/rpc), the gateway dispatches into the serverless
// runtime, exactly the NGINX-front-end role in the OpenWhisk pipeline.
// Handlers are context-aware: a client cancel frame or a dropped
// connection cancels the running invocation, and timed-out chain steps
// are respawned once before the failure surfaces (§3.2).
type Gateway struct {
	rt      *Runtime
	srv     *rpc.Server
	cfg     GatewayConfig
	monitor *metrics.Registry
	adm     *admission // nil unless cfg.Overload is set

	mu     sync.Mutex
	chains map[string][]string // chain method -> tier functions (for Recover)
	nextID uint64

	// bd is the four-stage decomposition of traced gateways (nil
	// untraced); bdMu guards it (stats.Breakdown is not goroutine-safe;
	// concurrent handlers record through this gate).
	bdMu sync.Mutex
	bd   *stats.Breakdown
}

// NewGatewayConfig wraps a runtime with a fully configured front door.
func NewGatewayConfig(rt *Runtime, cfg GatewayConfig) *Gateway {
	if cfg.StepRespawns < 0 {
		cfg.StepRespawns = 0
	}
	g := &Gateway{rt: rt, srv: rpc.NewServer(), cfg: cfg, chains: make(map[string][]string)}
	if cfg.Overload != nil {
		g.adm = newAdmission(g, *cfg.Overload)
	}
	if cfg.Tracer != nil {
		g.bd = stats.NewBreakdown()
	}
	return g
}

// Breakdown snapshots the paper's four-stage latency decomposition
// (network/management/dataio/execution) of every successful task this
// gateway ran; nil when the gateway is untraced. Fold several gateways'
// snapshots together with Breakdown.Merge.
func (g *Gateway) Breakdown() *stats.Breakdown {
	if g.bd == nil {
		return nil
	}
	out := stats.NewBreakdown()
	g.bdMu.Lock()
	out.Merge(g.bd)
	g.bdMu.Unlock()
	return out
}

// SetMonitor installs the metrics registry the gateway and its
// admission queues report into (nil disables reporting). Must be called
// before the gateway starts serving traffic.
func (g *Gateway) SetMonitor(m *metrics.Registry) { g.monitor = m }

// Server returns the underlying RPC server (serve it on a listener or
// an in-process pipe).
func (g *Gateway) Server() *rpc.Server { return g.srv }

// callCtx bounds the per-call context by the earlier of the configured
// Timeout and the caller's deadline, arming at most one timer. A ring
// handler runs on the caller's live context, whose deadline already
// fires, so it is returned as is. A framed request's context carries
// the wire deadline but never fires it (rpc.PassiveDeadline), so the
// gateway arms the timer here.
func (g *Gateway) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	d, hasD := ctx.Deadline()
	if g.cfg.Timeout > 0 {
		if t := time.Now().Add(g.cfg.Timeout); !hasD || t.Before(d) {
			return context.WithDeadline(ctx, t)
		}
	}
	if hasD && rpc.PassiveDeadline(ctx) {
		// context.WithDeadline with d equal to the parent's deadline still
		// arms a real timer (the parent's is not strictly earlier), which
		// is the point: the passive parent never fires its own.
		return context.WithDeadline(ctx, d)
	}
	return ctx, func() {}
}

// dropExpired sheds a request whose wire deadline already passed before
// any work was dispatched — admission queueing may have consumed the
// caller's whole budget. Executing it would burn capacity on an answer
// nobody is waiting for, the §3.2 overload spiral.
func (g *Gateway) dropExpired(ctx context.Context) error {
	d, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	late := time.Since(d)
	if late < 0 {
		return nil
	}
	g.monitor.Inc("gateway-expired-drop")
	return &rpc.DeadlineExceededError{Late: late}
}

// Expose registers a runtime function under an RPC method name. The
// function must already be registered on the runtime.
func (g *Gateway) Expose(method, function string) {
	g.srv.RegisterCtx(method, func(ctx context.Context, payload []byte) ([]byte, error) {
		start := time.Now()
		env, body, _ := DecodeTaskEnvelope(payload)
		if g.adm != nil {
			aerr := g.adm.admit(ctx)
			if aerr != nil {
				g.countFailure(ctx, aerr)
				return nil, aerr
			}
			defer g.adm.release()
		}
		if derr := g.dropExpired(ctx); derr != nil {
			g.countFailure(ctx, derr)
			return nil, derr
		}
		ctx, cancel := g.callCtx(ctx)
		defer cancel()
		octx, obs := g.observeTask(ctx, method, env.Trace.TraceID, env, start)
		out, err := g.rt.Invoke(octx, function, body)
		obs.finish(err)
		g.monitor.Observe("gateway-latency", time.Since(start).Seconds())
		if err != nil {
			g.countFailure(ctx, err)
			return nil, err
		}
		g.monitor.Inc("gateway-ok")
		return out, nil
	})
}

// ExposeBatch registers the batch-envelope endpoint (rpc.BatchMethod):
// one RPC carries N small independent calls, each fanned out to this
// gateway's registered methods concurrently. Every entry runs through
// the same handler a dedicated call would — admission queueing,
// deadline drops and shedding apply per entry — so a batch amortizes
// per-RPC overhead without ever bypassing the front door. Per-entry
// outcomes ride back in one reply frame with their wire error forms
// intact (a shed entry stays rpc.IsShed after the round trip).
func (g *Gateway) ExposeBatch() {
	g.srv.RegisterCtx(rpc.BatchMethod, func(ctx context.Context, payload []byte) ([]byte, error) {
		entries, err := rpc.DecodeBatch(payload)
		if err != nil {
			return nil, err
		}
		g.monitor.Inc("gateway-batch")
		replies := make([]rpc.BatchReply, len(entries))
		var wg sync.WaitGroup
		for i, e := range entries {
			if e.Method == rpc.BatchMethod {
				replies[i] = rpc.BatchReply{Err: "rpc: nested batch envelope"}
				continue
			}
			wg.Add(1)
			go func(i int, e rpc.BatchEntry) {
				defer wg.Done()
				out, derr := g.srv.Dispatch(ctx, e.Method, e.Payload)
				if derr != nil {
					replies[i] = rpc.BatchReply{Err: derr.Error()}
					return
				}
				replies[i] = rpc.BatchReply{Body: out}
			}(i, e)
		}
		wg.Wait()
		g.monitor.Observe("gateway-batch-entries", float64(len(entries)))
		return rpc.EncodeBatchReplies(replies), nil
	})
}

// TaskResult resolves a checkpointed chain task's final output from
// durable state: found only once the task completed and its last step
// output committed. Because it reads the shared store, any gateway in
// the fleet (or a fresh one after a crash) can resolve a result id it
// never dispatched — the property that makes ingress result ids
// survive a gateway death.
func (g *Gateway) TaskResult(taskID string) ([]byte, bool, error) {
	if g.cfg.Checkpoints == nil {
		return nil, false, nil
	}
	ck, found, err := g.cfg.Checkpoints.Task(taskID)
	if err != nil || !found || !ck.Done {
		return nil, false, err
	}
	g.mu.Lock()
	functions, known := g.chains[ck.Method]
	g.mu.Unlock()
	if !known || len(functions) == 0 {
		return nil, false, nil
	}
	out, committed, err := g.cfg.Checkpoints.StepOutput(taskID, len(functions)-1)
	if err != nil || !committed {
		return nil, false, err
	}
	return out, true, nil
}

// countFailure classifies a failed request into the counters the
// monitoring plane keys on: shed (refused unexecuted, an overload
// signal), fenced (a deposed primary's write rejected, a consistency
// save not a fault), timeout (deadline or cancellation spent the
// work), and execution error (the function itself failed). Conflating
// them is how dashboards mistake a shedding-but-healthy
// gateway for a dying one.
func (g *Gateway) countFailure(ctx context.Context, err error) {
	switch {
	case rpc.IsShed(err):
		g.monitor.Inc("gateway-shed")
	case rpc.IsFenced(err):
		g.monitor.Inc("gateway-fenced")
	case rpc.IsDeadlineExceeded(err) || ctx.Err() != nil:
		g.monitor.Inc("gateway-timeout")
	default:
		g.monitor.Inc("gateway-error")
	}
}

// mapFenced converts a store-level fence rejection into the
// wire-parseable rpc form (so leader-following clients re-route to the
// new primary instead of failing the call) and fires the OnFenced
// deposition hook. Every other error passes through unchanged.
func (g *Gateway) mapFenced(err error) error {
	var fe *store.FencedError
	if !errors.As(err, &fe) {
		return err
	}
	if g.cfg.OnFenced != nil {
		g.cfg.OnFenced()
	}
	return rpc.FencedError(fe.Token, fe.Fence)
}

// genTaskID mints a gateway-local task id for bare payloads.
func (g *Gateway) genTaskID(method string) string {
	n := atomic.AddUint64(&g.nextID, 1)
	return fmt.Sprintf("%s-%d-%d", method, time.Now().UnixNano(), n)
}

// ExposeChain registers an RPC method that runs a multi-tier pipeline
// through the store-backed chain (one edge call triggers the whole
// cloud-side task graph, as the generated FaaS bindings do). Each step
// is respawned up to StepRespawns times after RespawnDelay when it
// fails — the live counterpart of the queueing model's
// respawn-on-failure behaviour (§3.2, Fig. 5c).
//
// With GatewayConfig.Checkpoints set the chain becomes a durable task:
// steps are write-ahead-recorded before dispatch, outputs commit
// create-only (so re-execution after a failover lands each step's
// effect exactly once), and Recover re-dispatches orphans.
func (g *Gateway) ExposeChain(method string, functions []string) {
	g.mu.Lock()
	g.chains[method] = append([]string(nil), functions...)
	g.mu.Unlock()
	g.srv.RegisterCtx(method, func(ctx context.Context, payload []byte) ([]byte, error) {
		start := time.Now()
		env, body, ok := DecodeTaskEnvelope(payload)
		taskID := env.ID
		if taskID == "" || !ok {
			taskID = g.genTaskID(method)
		}
		traceID := env.Trace.TraceID
		if traceID == "" {
			traceID = taskID
		}
		octx, obs := g.observeTask(ctx, method, traceID, env, start)
		if g.cfg.Admission != nil {
			if err := obs.admission(method, g.cfg.Admission); err != nil {
				obs.finish(err)
				return nil, err
			}
		}
		if g.adm != nil {
			aerr := g.adm.admit(octx)
			if aerr != nil {
				obs.finish(aerr)
				g.countFailure(octx, aerr)
				return nil, aerr
			}
			defer g.adm.release()
		}
		if derr := g.dropExpired(octx); derr != nil {
			obs.finish(derr)
			g.countFailure(octx, derr)
			return nil, derr
		}
		octx, cancel := g.callCtx(octx)
		defer cancel()
		var data []byte
		var err error
		if g.cfg.Checkpoints != nil {
			data, err = g.runDurable(octx, method, taskID, functions, body)
			err = g.mapFenced(err)
		} else {
			data, err = g.runVolatile(octx, method, functions, body)
		}
		obs.finish(err)
		if err != nil {
			g.countFailure(octx, err)
			return nil, err
		}
		g.monitor.Observe("gateway-chain-latency", time.Since(start).Seconds())
		g.monitor.Inc("gateway-ok")
		return data, nil
	})
}

// runVolatile is the original non-checkpointed chain body.
func (g *Gateway) runVolatile(ctx context.Context, method string, functions []string, payload []byte) ([]byte, error) {
	data := payload
	for _, fn := range functions {
		out, err := g.runStep(ctx, method, fn, data)
		if err != nil {
			return nil, fmt.Errorf("chain %s at tier %s: %w", method, fn, err)
		}
		key := fmt.Sprintf("out/%s/%s", fn, method)
		data, err = g.rt.exchange(ctx, key, out)
		if err != nil {
			return nil, fmt.Errorf("chain %s: persisting %s: %w", method, key, err)
		}
	}
	return data, nil
}

// runDurable executes a chain against the checkpoint log: committed
// steps are skipped (their stored output feeds the next tier), pending
// steps run through the ordinary respawn path and then commit
// create-only.
func (g *Gateway) runDurable(ctx context.Context, method, taskID string, functions []string, payload []byte) ([]byte, error) {
	// Checkpoint reads and commits are store round-trips: they charge
	// the task's data-IO stage, like the runtime's exchange handoffs.
	clk := taskTraceFrom(ctx).stages()
	stop := clk.track(stats.StageDataIO)
	ck, input, err := g.cfg.Checkpoints.Begin(taskID, method, payload)
	stop()
	if err != nil {
		return nil, fmt.Errorf("chain %s: opening task %s: %w", method, taskID, err)
	}
	g.trackStart(taskID, ck.Method)
	defer g.trackFinish(taskID)
	data := input
	for i, fn := range functions {
		stop = clk.track(stats.StageDataIO)
		out, committed, serr := g.cfg.Checkpoints.StepOutput(taskID, i)
		stop()
		if serr != nil {
			return nil, fmt.Errorf("chain %s: reading step %d of %s: %w", method, i, taskID, serr)
		}
		if committed {
			data = out // already committed by a previous incarnation
			continue
		}
		// Write-ahead: the step index is durable before dispatch, so a
		// crash right after this point leaves an enumerable orphan.
		stop = clk.track(stats.StageDataIO)
		err := g.cfg.Checkpoints.Advance(taskID, i)
		stop()
		if err != nil {
			return nil, fmt.Errorf("chain %s: checkpointing step %d of %s: %w", method, i, taskID, err)
		}
		g.trackStep(taskID, i)
		out, err = g.runStep(ctx, method, fn, data)
		if err != nil {
			return nil, fmt.Errorf("chain %s at tier %s: %w", method, fn, err)
		}
		stop = clk.track(stats.StageDataIO)
		data, err = g.cfg.Checkpoints.CommitStep(taskID, i, out)
		stop()
		if err != nil {
			return nil, fmt.Errorf("chain %s: committing step %d of %s: %w", method, i, taskID, err)
		}
	}
	stop = clk.track(stats.StageDataIO)
	err = g.cfg.Checkpoints.Complete(taskID)
	stop()
	if err != nil {
		return nil, fmt.Errorf("chain %s: completing task %s: %w", method, taskID, err)
	}
	return data, nil
}

// Recover enumerates orphaned checkpointed tasks and re-dispatches each
// through its chain's respawn path, concurrently. It returns how many
// orphans completed. A newly promoted controller primary calls this
// (controller.ReplicaConfig.Recover) — the §4.7 takeover finishing work
// the dead primary left behind.
func (g *Gateway) Recover(ctx context.Context) (int, error) {
	if g.cfg.Checkpoints == nil {
		return 0, nil
	}
	orphans, err := g.cfg.Checkpoints.Orphans()
	if err != nil {
		return 0, err
	}
	var done int64
	var wg sync.WaitGroup
	for _, ck := range orphans {
		g.mu.Lock()
		functions, known := g.chains[ck.Method]
		g.mu.Unlock()
		if !known {
			continue // chain not exposed on this gateway
		}
		ck := ck
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx, cancel := g.callCtx(ctx)
			defer cancel()
			g.monitor.Inc("gateway-orphan-redispatch")
			if _, rerr := g.runDurable(rctx, ck.Method, ck.TaskID, functions, nil); rerr == nil {
				atomic.AddInt64(&done, 1)
			}
		}()
	}
	wg.Wait()
	return int(atomic.LoadInt64(&done)), nil
}

func (g *Gateway) trackStart(id, method string) {
	if g.cfg.Tracker != nil {
		g.cfg.Tracker.TaskStarted(id, method)
	}
}

func (g *Gateway) trackStep(id string, step int) {
	if g.cfg.Tracker != nil {
		g.cfg.Tracker.TaskStep(id, step)
	}
}

func (g *Gateway) trackFinish(id string) {
	if g.cfg.Tracker != nil {
		g.cfg.Tracker.TaskFinished(id)
	}
}

// runStep executes one chain tier, respawning it after failures while
// the chain's own deadline still has budget.
func (g *Gateway) runStep(ctx context.Context, method, fn string, input []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= g.cfg.StepRespawns; attempt++ {
		if attempt > 0 {
			g.monitor.Inc("gateway-respawn")
			if g.cfg.RespawnDelay > 0 {
				sleepCtx(ctx, g.cfg.RespawnDelay)
			}
		}
		if err := ctx.Err(); err != nil {
			// The chain's own deadline is spent: no respawn can help.
			if lastErr != nil {
				return nil, fmt.Errorf("%w (after %v)", err, lastErr)
			}
			return nil, err
		}
		out, err := g.rt.Invoke(ctx, fn, input)
		if err == nil {
			return out, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Close shuts the RPC server down (the runtime is left to its owner).
func (g *Gateway) Close() { g.srv.Close() }
