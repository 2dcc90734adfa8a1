package chaos_test

import (
	"context"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/fleet"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/stats"
	"hivemind/internal/trace"
)

// This file is the live acceptance test for the observability layer: a
// traced multi-function chain through a real replica set over TCP, with
// one injected runtime fault mid-chain, must produce (a) a Chrome trace
// whose spans cover every layer of the stack — gateway, controller,
// RPC hop, runtime — all sharing the task's trace id, and (b) a
// four-stage latency decomposition whose stage sums reconstruct the
// client-measured end-to-end latency within 5%.

// sleepyChain builds a 3-tier chain whose tiers each burn a visible
// amount of wall clock, so every stage of the decomposition is
// non-trivial and the 5% reconstruction bound is meaningful.
func sleepyChain(d time.Duration) (chain []string, fns map[string]runtime.Function) {
	tier := func(tag string) runtime.Function {
		return func(ctx context.Context, in []byte) ([]byte, error) {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return append(append([]byte{}, in...), tag...), nil
		}
	}
	fns = map[string]runtime.Function{
		"sense": tier(".s"), "plan": tier(".p"), "act": tier(".a"),
	}
	return []string{"sense", "plan", "act"}, fns
}

func TestObservabilityE2ETraceAndBreakdown(t *testing.T) {
	rec := trace.NewRecorder(0)
	live := trace.NewLive(rec)
	mon := metrics.NewRegistry()
	inj := chaos.NewInjector(11, chaos.Config{})
	// The injector is also each runtime's invoke-fault hook.
	rcfg := runtime.DefaultConfig()
	rcfg.Injector = inj
	f := bootFleet(t, fleet.Config{
		Seed: 11, Monitor: mon, Fault: inj, Tracer: live,
		Runtime: rcfg, Gateway: chainGateway,
		Setup: pipeline(sleepyChain(25 * time.Millisecond)),
	})
	primary := leader(t, f)

	// One injected fault: the mid tier's first execution attempt dies,
	// the gateway respawns the step, the chain completes.
	inj.At("invoke/plan", 0)

	cl := rpc.DialFailover([]string{primary.Addr}, rpc.FailoverOptions{
		Callers:  4,
		Attempts: 1,
		Observer: runtime.TraceCallObserver(live),
	})
	defer cl.Close()

	const taskID = "task-obs"
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	payload := runtime.EncodeTaskTraced(taskID, trace.SpanContext{TraceID: taskID}, start, []byte("x"))
	out, err := cl.Call(ctx, "pipeline", payload)
	e2e := time.Since(start).Seconds()
	if err != nil {
		t.Fatalf("chain failed: %v", err)
	}
	if string(out) != "x.s.p.a" {
		t.Fatalf("chain output = %q, want x.s.p.a", out)
	}
	if got := inj.FaultCount("invoke/plan"); got != 1 {
		t.Fatalf("injected fault fired %d times, want 1", got)
	}

	// (a) The trace covers all four layers of the stack under one id.
	layerSpans := map[string]int{}
	for _, s := range rec.Spans() {
		if s.Args["trace"] == taskID {
			layerSpans[s.Track]++
		}
	}
	for _, track := range []string{"gateway", "controller", "rpc", "runtime"} {
		if layerSpans[track] == 0 {
			t.Fatalf("no %s-layer span carries trace id %q; per-layer spans: %v",
				track, taskID, layerSpans)
		}
	}
	// The respawned mid tier ran twice, so the runtime lane shows all
	// four invokes (sense, plan x2, act).
	if layerSpans["runtime"] != 4 {
		t.Fatalf("runtime spans = %d, want 4 (respawned tier re-traced)", layerSpans["runtime"])
	}

	// (b) Stage sums reconstruct the measured end-to-end latency. Only
	// the primary's gateway served the task; its breakdown holds exactly
	// one successful task. The stages cover everything but the
	// response's return hop on loopback, so 5% is generous.
	bd := stats.NewBreakdown()
	for _, nd := range f.Nodes {
		bd.Merge(nd.Gateway.Breakdown())
	}
	if bd.N() != 1 {
		t.Fatalf("breakdown holds %d tasks, want 1", bd.N())
	}
	var sum float64
	for _, st := range stats.AllStages {
		sum += bd.Stage(st).Sum()
	}
	if diff := e2e - sum; diff < 0 || diff > 0.05*e2e {
		t.Fatalf("stage sums %.6fs vs e2e %.6fs: diff %.6fs outside [0, 5%%]",
			sum, e2e, e2e-sum)
	}
	// The execution stage dominates a compute chain: 3 successful sleeps
	// of 25 ms (the faulted attempt dies before its body runs).
	if exec := bd.Stage(stats.StageExecution).Sum(); exec < 0.07 {
		t.Fatalf("execution stage %.6fs, want >= 3x25ms-ish", exec)
	}
}
