// End-to-end chaos suite: the hardened substrate (rpc retries and
// redials, gateway respawn, store degradation) is driven
// through seeded fault injection on real TCP and in-process transports,
// and its qualitative behaviour is cross-checked against the
// internal/faas queueing model's §3.2 respawn-on-failure predictions.
// Every test is deterministic under -race: faults come from scripted
// decisions or per-connection injectors with fixed seeds.
package chaos_test

import (
	"context"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/cluster"
	"hivemind/internal/faas"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/sim"
)

// serveTCP starts an RPC server on a loopback listener and returns its
// address.
func serveTCP(t *testing.T, srv *rpc.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func echoServer(t *testing.T) *rpc.Server {
	t.Helper()
	srv := rpc.NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	t.Cleanup(srv.Close)
	return srv
}

// flakyDial wraps the first `bad` dialed connections with an injector
// that deterministically kills them, then hands out clean connections.
func flakyDial(dial func() (net.Conn, error), bad int, cfg chaos.Config) func() (net.Conn, error) {
	var mu sync.Mutex
	dials := 0
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		dials++
		n := dials
		mu.Unlock()
		if n <= bad {
			return chaos.NewInjector(int64(n), cfg).WrapConn(c), nil
		}
		return c, nil
	}
}

// fastRetry allows max retries on a pause kept small so chaos tests
// stay quick.
func fastRetry(max int) rpc.FailoverOptions {
	return rpc.FailoverOptions{
		Attempts:     max + 1,
		RetryBackoff: 5 * time.Millisecond,
	}
}

// dialFailover is rpc.DialFailover with a caller pool of callers on
// each endpoint's connection instead of the default 8.
func dialFailover(addrs []string, callers int, opts rpc.FailoverOptions) *rpc.FailoverClient {
	endpoints := make([]func() (rpc.Transport, error), len(addrs))
	for i, addr := range addrs {
		endpoints[i] = rpc.ConnEndpoint(func() (net.Conn, error) { return net.Dial("tcp", addr) }, callers)
	}
	return rpc.NewFailover(endpoints, opts)
}

// hardened builds the one-endpoint hardened client over a dial function
// (the chaos tests wrap its conns in an injector). failed counts the
// attempts that ended in an error, each of which the client re-attempts
// unless it was the call's last.
func hardened(dial func() (net.Conn, error), callers int, opts rpc.FailoverOptions) (rc *rpc.FailoverClient, failed *atomic.Int64) {
	failed = new(atomic.Int64)
	opts.Observer = func(string, []byte) func(error) {
		return func(err error) {
			if err != nil {
				failed.Add(1)
			}
		}
	}
	return rpc.NewFailover([]func() (rpc.Transport, error){rpc.ConnEndpoint(dial, callers)}, opts), failed
}

// Acceptance (a), TCP: the hardened client retries through connections
// that drop every frame and completes within the caller's deadline.
func TestChaosRetrySurvivesDroppedConnectionsTCP(t *testing.T) {
	addr := serveTCP(t, echoServer(t))
	rc, failed := hardened(flakyDial(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, 2, chaos.Config{DropProb: 1}), 4, fastRetry(4))
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := rc.Call(ctx, "echo", []byte("swarm"))
	if err != nil {
		t.Fatalf("call over dropping transport = %v", err)
	}
	if string(out) != "swarm" {
		t.Fatalf("out = %q", out)
	}
	if n := failed.Load(); n < 2 {
		t.Fatalf("failed attempts = %d, want >= 2 (two poisoned connections)", n)
	}
}

// Acceptance (a), in-process: the same recovery works over net.Pipe
// transports, so chaos tests do not depend on a TCP stack.
func TestChaosRetrySurvivesDroppedConnectionsInProcess(t *testing.T) {
	srv := echoServer(t)
	dial := func() (net.Conn, error) {
		cc, sc := rpc.Pair()
		srv.ServeConn(sc)
		return cc, nil
	}
	rc, failed := hardened(flakyDial(dial, 2, chaos.Config{DropProb: 1}), 4, fastRetry(4))
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := rc.Call(ctx, "echo", []byte("pipe"))
	if err != nil || string(out) != "pipe" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	if n := failed.Load(); n < 2 {
		t.Fatalf("failed attempts = %d, want >= 2", n)
	}
}

// Acceptance (a), one-way partition: requests vanish into an outbound
// blackhole; per-attempt timeouts convert the silence into retryable
// failures, and once the partition heals a retry completes within the
// caller's deadline.
func TestChaosRetrySurvivesOneWayPartition(t *testing.T) {
	addr := serveTCP(t, echoServer(t))
	inj := chaos.NewInjector(7, chaos.Config{})
	inj.Partition(chaos.Outbound)
	opts := fastRetry(6)
	opts.CallTimeout = 50 * time.Millisecond
	rc, failed := hardened(func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return inj.WrapConn(c), nil
	}, 4, opts)
	defer rc.Close()

	// Heal as soon as the first attempt has been swallowed and retried.
	go func() {
		for failed.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		inj.Heal()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := rc.Call(ctx, "echo", []byte("healed"))
	if err != nil {
		t.Fatalf("call across healed partition = %v", err)
	}
	if string(out) != "healed" {
		t.Fatalf("out = %q", out)
	}
	if failed.Load() == 0 {
		t.Fatal("partition injected no retries")
	}
}

// Torn frames: a write that truncates mid-frame kills the connection;
// the reader's framing detects it and the client recovers by redialing.
func TestChaosTruncatedFrameRecovered(t *testing.T) {
	addr := serveTCP(t, echoServer(t))
	rc, failed := hardened(flakyDial(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, 1, chaos.Config{TruncateProb: 1}), 4, fastRetry(4))
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := rc.Call(ctx, "echo", []byte("frame"))
	if err != nil || string(out) != "frame" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	if failed.Load() == 0 {
		t.Fatal("truncated frame did not force a retry")
	}
}

// Acceptance (b): a function killed mid-chain is respawned once by the
// gateway and the chain completes — over real TCP, reported into the
// controller's monitor, exactly the §3.2 respawn-and-continue path.
func TestChaosKilledFunctionMidChainRespawns(t *testing.T) {
	inj := chaos.NewInjector(3, chaos.Config{})
	// head ok, mid killed, mid respawn ok, tail ok.
	inj.Script(false, true, false, false)

	cfg := runtime.DefaultConfig()
	cfg.Retries = 0 // the gateway, not the runtime, must do the respawn
	cfg.Injector = inj
	rt := runtime.New(cfg, nil)
	defer rt.Close()
	var ran atomic.Int64 // function bodies that ran
	for _, name := range []string{"head", "mid", "tail"} {
		rt.Register(name, func(ctx context.Context, in []byte) ([]byte, error) {
			ran.Add(1)
			return append(in, '|'), nil
		})
	}

	gcfg := runtime.DefaultGatewayConfig()
	gcfg.Timeout = 5 * time.Second
	gcfg.RespawnDelay = time.Millisecond
	g := runtime.NewGatewayConfig(rt, gcfg)
	mon := metrics.NewRegistry()
	g.SetMonitor(mon)
	g.ExposeChain("pipeline", []string{"head", "mid", "tail"})
	defer g.Close()
	addr := serveTCP(t, g.Server())

	rc := dialFailover([]string{addr}, 4, fastRetry(2))
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := rc.Call(ctx, "pipeline", []byte("x"))
	if err != nil {
		t.Fatalf("chain with killed step = %v", err)
	}
	if string(out) != "x|||" {
		t.Fatalf("out = %q", out)
	}
	// Four invocations, one of them killed before its body ran.
	if inv := rt.Stats().Invocations; inv != 4 || ran.Load() != 3 {
		t.Fatalf("invocations = %d, bodies run = %d, want 4 and 3", inv, ran.Load())
	}
	if mon.Counter("gateway-respawn") != 1 {
		t.Fatalf("gateway-respawn = %g, want 1", mon.Counter("gateway-respawn"))
	}
	if inj.FaultCount("invoke/mid") != 1 {
		t.Fatalf("injected mid kills = %d", inj.FaultCount("invoke/mid"))
	}
}

// Tail latency under faults, cross-checked against the faas model: the
// live substrate completes every request despite seeded drops and
// latency spikes (retries hide the failures, inflating only the tail),
// and the queueing model predicts the same shape — 100% completion with
// failures respawned, per §3.2 / Fig. 5c.
func TestChaosTailLatencyCrossCheckedAgainstModel(t *testing.T) {
	// --- Live substrate under seeded transport chaos.
	addr := serveTCP(t, echoServer(t))
	inj := chaos.NewInjector(42, chaos.Config{
		DropProb:  0.03,
		DelayProb: 0.25,
		DelayMin:  time.Millisecond,
		DelayMax:  4 * time.Millisecond,
	})
	opts := fastRetry(5)
	opts.CallTimeout = 500 * time.Millisecond
	var dials atomic.Int64
	rc, failed := hardened(func() (net.Conn, error) {
		dials.Add(1)
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return inj.WrapConn(c), nil
	}, 8, opts)
	defer rc.Close()

	const n = 60
	latencies := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		_, err := rc.Call(ctx, "echo", []byte{byte(i)})
		cancel()
		if err != nil {
			t.Fatalf("call %d failed under chaos: %v", i, err)
		}
		latencies = append(latencies, time.Since(start).Seconds())
	}
	sort.Float64s(latencies)
	p50 := latencies[n/2]
	worst := latencies[n-1]
	// Chaos must actually bite (drops and delays injected) and the
	// client must actually recover (a retry mid-call or a redial after a
	// between-call drop).
	if f, redials := failed.Load(), dials.Load()-1; f+redials == 0 || worst < time.Millisecond.Seconds() {
		t.Fatalf("chaos was a no-op: %d failed attempts, %d redials, slowest call %.4fs", f, redials, worst)
	}
	if worst < p50 {
		t.Fatalf("tail %.4fs below median %.4fs", worst, p50)
	}

	// --- Queueing model with the matching failure regime.
	e := sim.NewEngine(42)
	mcfg := faas.DefaultConfig()
	mcfg.InterferenceCoef = 0
	mcfg.StragglerProb = 0
	mcfg.MonitoringOverhead = 0
	mcfg.FailureProb = 0.2
	cls := cluster.New(e, cluster.Config{Servers: 4, CoresPerServer: 8, MemGBPerServer: 64})
	p := faas.New(e, cls, mcfg)
	completed, respawns := 0, 0
	for i := 0; i < n; i++ {
		at := float64(i) * 0.01
		e.At(at, func() {
			p.Invoke(faas.FunctionSpec{Name: "echo", ExecS: 0.05, Parallelism: 1, MemGB: 1},
				func(r faas.Result) {
					completed++
					respawns += r.Respawns
				})
		})
	}
	e.Run()

	// Cross-check: both layers absorb failures without losing work.
	if completed != n {
		t.Fatalf("model completed %d/%d", completed, n)
	}
	if respawns == 0 {
		t.Fatal("model injected no failures: no invocation respawned")
	}
}
