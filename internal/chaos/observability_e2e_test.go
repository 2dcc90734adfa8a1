package chaos_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/stats"
	"hivemind/internal/store"
	"hivemind/internal/trace"
)

// This file is the live acceptance test for the observability layer: a
// traced multi-function chain through a real replica set over TCP, with
// one injected runtime fault mid-chain, must produce (a) a Chrome trace
// whose spans cover every layer of the stack — gateway, controller,
// RPC hop, runtime — all sharing the task's trace id, and (b) a
// four-stage latency decomposition whose stage sums reconstruct the
// client-measured end-to-end latency within 5%.

// startObservedCluster is startFailoverCluster with the observability
// layer wired in: a shared live tracer across gateways, controllers and
// RPC servers, a per-node latency breakdown, and the chaos injector
// also installed as each runtime's invoke-fault hook.
func startObservedCluster(t *testing.T, n int, seed int64, mon *controller.Monitor,
	inj *chaos.Injector, db *store.DB, chain []string, fns map[string]runtime.Function,
	live *trace.Live) ([]*failNode, []*stats.Breakdown) {
	t.Helper()
	log := store.NewCheckpointLog(db)

	ctrlLns := make([]net.Listener, n)
	ctrlAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctrlLns[i] = ln
		ctrlAddrs[i] = ln.Addr().String()
	}

	nodes := make([]*failNode, n)
	bds := make([]*stats.Breakdown, n)
	for i := 0; i < n; i++ {
		rcfg := runtime.DefaultConfig()
		rcfg.Retries = 0
		rcfg.Injector = inj
		rt := runtime.New(rcfg, db)
		for name, fn := range fns {
			rt.Register(name, fn)
		}

		var gwPtr atomic.Pointer[runtime.Gateway]
		ccfg := fastCtrlConfig(i, n, seed)
		ccfg.Fault = inj
		ccfg.Recover = func(ctx context.Context) (int, error) {
			if g := gwPtr.Load(); g != nil {
				return g.Recover(ctx)
			}
			return 0, nil
		}
		peers := make(map[int]func() (net.Conn, error), n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			addr := ctrlAddrs[j]
			peers[j] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		}
		rep := controller.NewReplica(ccfg, peers, mon)
		rep.SetTracer(live)

		bds[i] = stats.NewBreakdown()
		gcfg := runtime.DefaultGatewayConfig()
		gcfg.Timeout = 10 * time.Second
		gcfg.RespawnDelay = gwRespawnDelay
		gcfg.Checkpoints = log
		gcfg.Admission = rep.Admission()
		gcfg.Tracker = rep
		gcfg.Tracer = live
		gcfg.Breakdown = bds[i]
		g := runtime.NewGatewayConfig(rt, gcfg)
		g.ExposeChain("pipeline", chain)
		g.Server().SetInterceptor(runtime.TraceServerInterceptor(live, "rpc"))
		gwPtr.Store(g)

		gln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go g.Server().Serve(gln)
		go rep.Server().Serve(ctrlLns[i])

		go func() {
			for rep.State() != controller.Dead {
				time.Sleep(2 * time.Millisecond)
			}
			g.Close()
		}()

		nodes[i] = &failNode{id: i, replica: rep, rt: rt, gw: g, gwAddr: gln.Addr().String()}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.replica.Kill()
			nd.gw.Close()
			nd.rt.Close()
		}
	})
	for _, nd := range nodes {
		nd.replica.Start()
	}
	return nodes, bds
}

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
	mon := controller.NewMonitor()
	inj := chaos.NewInjector(11, chaos.Config{})
	db := store.NewDB()
	chain, fns := sleepyChain(25 * time.Millisecond)
	nodes, bds := startObservedCluster(t, 3, 11, mon, inj, db, chain, fns, live)
	primary := waitPrimary(t, nodes, 3*time.Second)

	// One injected fault: the mid tier's first execution attempt dies,
	// the gateway respawns the step, the chain completes.
	inj.At("invoke/plan", 0)

	cl := rpc.DialFailover([]string{primary.gwAddr}, rpc.FailoverOptions{
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
	for _, b := range bds {
		bd.Merge(b)
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
