package runtime

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
)

func gatewayPair(t *testing.T, g *Gateway) *rpc.Client {
	t.Helper()
	cc, sc := rpc.Pair()
	g.Server().ServeConn(sc)
	c := rpc.NewClient(cc, 8)
	t.Cleanup(func() { c.Close(); g.Close() })
	return c
}

// newGateway wraps rt with an RPC front door whose invocations time
// out after timeout (0 = no deadline); other knobs take the
// DefaultGatewayConfig values.
func newGateway(rt *Runtime, timeout time.Duration) *Gateway {
	cfg := DefaultGatewayConfig()
	cfg.Timeout = timeout
	return NewGatewayConfig(rt, cfg)
}

func TestGatewayExpose(t *testing.T) {
	rt := New(DefaultConfig(), nil)
	defer rt.Close()
	rt.Register("upper", func(ctx context.Context, in []byte) ([]byte, error) {
		return bytes.ToUpper(in), nil
	})
	g := newGateway(rt, time.Second)
	g.Expose("collectImage.recognize", "upper")
	c := gatewayPair(t, g)

	out, err := c.CallSync("collectImage.recognize", []byte("swarm"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "SWARM" {
		t.Fatalf("out = %q", out)
	}
	if rt.Stats().Invocations != 1 {
		t.Fatal("runtime not invoked through gateway")
	}
}

func TestGatewayPropagatesErrors(t *testing.T) {
	rt := New(DefaultConfig(), nil)
	defer rt.Close()
	g := newGateway(rt, time.Second)
	g.Expose("m", "unregistered")
	c := gatewayPair(t, g)
	if _, err := c.CallSync("m", nil); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v", err)
	}
}

func TestGatewayTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retries = 0
	rt := New(cfg, nil)
	defer rt.Close()
	rt.Register("slow", func(ctx context.Context, in []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, nil
		}
	})
	g := newGateway(rt, 30*time.Millisecond)
	g.Expose("m", "slow")
	c := gatewayPair(t, g)
	start := time.Now()
	_, err := c.CallSync("m", nil)
	if err == nil {
		t.Fatal("slow call succeeded past its deadline")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline not enforced promptly")
	}
}

func TestGatewayChain(t *testing.T) {
	rt := New(DefaultConfig(), nil)
	defer rt.Close()
	rt.Register("trim", func(ctx context.Context, in []byte) ([]byte, error) {
		return bytes.TrimSpace(in), nil
	})
	rt.Register("upper", func(ctx context.Context, in []byte) ([]byte, error) {
		return bytes.ToUpper(in), nil
	})
	g := newGateway(rt, time.Second)
	g.ExposeChain("pipeline", []string{"trim", "upper"})
	c := gatewayPair(t, g)
	out, err := c.CallSync("pipeline", []byte("  people  "))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "PEOPLE" {
		t.Fatalf("out = %q", out)
	}
	// Intermediate tier outputs persisted through the store.
	if _, err := rt.Store().Get("out/trim/pipeline"); err != nil {
		t.Fatal("chain did not persist intermediates")
	}
}

// killNext fails the next invocation of a function exactly n times —
// the runtime.Injector face of a "killed container".
type killNext struct {
	mu   sync.Mutex
	op   string
	left int
}

func (k *killNext) Fault(op string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if op == k.op && k.left > 0 {
		k.left--
		return errors.New("container killed")
	}
	return nil
}

// Acceptance (b): a killed function mid-chain is respawned once by the
// gateway and the chain completes.
func TestGatewayRespawnsKilledChainStep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retries = 0 // isolate gateway-level respawn from runtime retries
	cfg.Injector = &killNext{op: "invoke/mid", left: 1}
	rt := New(cfg, nil)
	defer rt.Close()
	var ran atomic.Int64 // function bodies that ran
	for _, name := range []string{"head", "mid", "tail"} {
		rt.Register(name, func(ctx context.Context, in []byte) ([]byte, error) {
			ran.Add(1)
			return append(in, '.'), nil
		})
	}
	gcfg := DefaultGatewayConfig()
	gcfg.Timeout = 5 * time.Second
	gcfg.RespawnDelay = time.Millisecond
	g := NewGatewayConfig(rt, gcfg)
	g.ExposeChain("pipeline", []string{"head", "mid", "tail"})
	c := gatewayPair(t, g)

	out, err := c.CallSync("pipeline", []byte("x"))
	if err != nil {
		t.Fatalf("chain with killed step = %v", err)
	}
	if string(out) != "x..." {
		t.Fatalf("out = %q", out)
	}
	// Four invocations, one of them killed before its body ran.
	if inv := rt.Stats().Invocations; inv != 4 || ran.Load() != 3 {
		t.Fatalf("invocations = %d, bodies run = %d, want 4 and 3", inv, ran.Load())
	}
}

func TestGatewayChainStepExhaustsRespawns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retries = 0
	const never = 1 << 30
	kill := &killNext{op: "invoke/mid", left: never} // never recovers
	cfg.Injector = kill
	rt := New(cfg, nil)
	defer rt.Close()
	for _, name := range []string{"head", "mid"} {
		rt.Register(name, func(ctx context.Context, in []byte) ([]byte, error) {
			return in, nil
		})
	}
	gcfg := DefaultGatewayConfig()
	gcfg.Timeout = 2 * time.Second
	gcfg.StepRespawns = 2
	gcfg.RespawnDelay = time.Millisecond
	g := NewGatewayConfig(rt, gcfg)
	g.ExposeChain("pipeline", []string{"head", "mid"})
	c := gatewayPair(t, g)
	if _, err := c.CallSync("pipeline", []byte("x")); err == nil ||
		!strings.Contains(err.Error(), "at tier mid") {
		t.Fatalf("err = %v, want tier-mid failure", err)
	}
	// StepRespawns is the whole per-step bound: the first run plus
	// exactly StepRespawns respawns, then the error surfaces.
	kill.mu.Lock()
	invoked := never - kill.left
	kill.mu.Unlock()
	if invoked != gcfg.StepRespawns+1 {
		t.Fatalf("failing step invoked %d times, want StepRespawns+1 = %d", invoked, gcfg.StepRespawns+1)
	}
}

// Client-side cancellation crosses the RPC boundary and stops the
// running function.
func TestGatewayClientCancelPropagates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retries = 0
	rt := New(cfg, nil)
	defer rt.Close()
	cancelled := make(chan struct{})
	rt.Register("watch", func(ctx context.Context, in []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			close(cancelled)
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, errors.New("never cancelled")
		}
	})
	g := newGateway(rt, 0)
	g.Expose("m", "watch")
	c := gatewayPair(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := c.Call(ctx, "m", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not reach the runtime function")
	}
}

func TestGatewayClosedServerFailsCalls(t *testing.T) {
	rt := New(DefaultConfig(), nil)
	defer rt.Close()
	rt.Register("echo", func(ctx context.Context, in []byte) ([]byte, error) { return in, nil })
	g := newGateway(rt, time.Second)
	g.Expose("m", "echo")
	cc, sc := rpc.Pair()
	g.Server().ServeConn(sc)
	c := rpc.NewClient(cc, 4)
	defer c.Close()
	if _, err := c.CallSync("m", []byte("x")); err != nil {
		t.Fatalf("pre-close call = %v", err)
	}
	g.Close()
	if _, err := c.CallSync("m", []byte("x")); err == nil {
		t.Fatal("call succeeded against a closed gateway")
	}
}

func TestGatewayReportsIntoMonitor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retries = 0
	cfg.Injector = &killNext{op: "invoke/mid", left: 1}
	rt := New(cfg, nil)
	defer rt.Close()
	rt.Register("mid", func(ctx context.Context, in []byte) ([]byte, error) { return in, nil })
	gcfg := DefaultGatewayConfig()
	gcfg.Timeout = 2 * time.Second
	gcfg.RespawnDelay = time.Millisecond
	g := NewGatewayConfig(rt, gcfg)
	mon := metrics.NewRegistry()
	g.SetMonitor(mon)
	g.Expose("direct", "mid")
	g.ExposeChain("pipeline", []string{"mid"})
	c := gatewayPair(t, g)

	if _, err := c.CallSync("pipeline", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallSync("direct", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if mon.Counter("gateway-ok") != 2 {
		t.Fatalf("gateway-ok = %g, want 2", mon.Counter("gateway-ok"))
	}
	if mon.Counter("gateway-respawn") != 1 {
		t.Fatalf("gateway-respawn = %g, want 1", mon.Counter("gateway-respawn"))
	}
	if mon.Histogram("gateway-latency").N() == 0 || mon.Histogram("gateway-chain-latency").N() == 0 {
		t.Fatal("no latency observations")
	}
}

// deadlineOnly reports an earlier deadline than its embedded context
// fires at, so the wire carries d while the client's cancel frame only
// comes at the embedded context's later deadline.
type deadlineOnly struct {
	context.Context
	d time.Time
}

func (c deadlineOnly) Deadline() (time.Time, bool) { return c.d, true }

// With no gateway Timeout the caller's deadline alone bounds the
// handler: a ring handler runs on the caller's live context, and a
// framed request's passive deadline is armed by the gateway.
func TestGatewayHandlerSeesCallerDeadline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retries = 0
	rt := New(cfg, nil)
	defer rt.Close()
	returned := make(chan time.Time, 1)
	rt.Register("block", func(ctx context.Context, _ []byte) ([]byte, error) {
		<-ctx.Done()
		returned <- time.Now()
		return nil, ctx.Err()
	})
	g := newGateway(rt, 0)
	defer g.Close()
	g.Expose("m", "block")
	l := NewLinker(LinkerOptions{Dial: func(string) (net.Conn, error) {
		cc, sc := rpc.Pair()
		g.Server().ServeConn(sc)
		return cc, nil
	}})
	defer l.Close()
	const budget = 50 * time.Millisecond
	for _, tc := range []struct {
		peer Peer
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{Peer{Gateway: g}, func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), budget)
		}},
		{Peer{Addr: "tier:1"}, func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			return deadlineOnly{ctx, time.Now().Add(budget)}, cancel
		}},
	} {
		link, err := l.Connect(tc.peer)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := tc.ctx()
		deadline, _ := ctx.Deadline()
		if _, err := link.Call(ctx, "m", nil); err == nil {
			t.Fatalf("%v: blocked handler returned success", kindOf(link))
		}
		cancel()
		select {
		case at := <-returned:
			if late := at.Sub(deadline); late > time.Second {
				t.Fatalf("%v: handler returned %v after the caller's deadline", kindOf(link), late)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: handler never saw the caller's deadline", kindOf(link))
		}
	}
}
