package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/rpc"
)

func echoGateway(t *testing.T) *Gateway {
	t.Helper()
	rt := New(DefaultConfig(), nil)
	t.Cleanup(rt.Close)
	rt.Register("upper", func(ctx context.Context, in []byte) ([]byte, error) {
		return bytes.ToUpper(in), nil
	})
	g := newGateway(rt, time.Second)
	g.Expose("recognize", "upper")
	t.Cleanup(g.Close)
	return g
}

// kindOf names the fast path a link rides: "ring" for the shared-memory
// ring, "stream" for a TCP client.
func kindOf(link *Link) string {
	switch link.Transport.(type) {
	case *rpc.Ring:
		return "ring"
	case *rpc.Client:
		return "stream"
	}
	return fmt.Sprintf("%T", link.Transport)
}

func TestLinkerSelectsRingForCoLocatedGateway(t *testing.T) {
	g := echoGateway(t)
	l := NewLinker(LinkerOptions{})
	defer l.Close()

	link, err := l.Connect(Peer{Gateway: g})
	if err != nil {
		t.Fatal(err)
	}
	if k := kindOf(link); k != "ring" {
		t.Fatalf("co-located peer selected %v, want ring", k)
	}
	out, err := link.CallSync("recognize", []byte("swarm"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "SWARM" {
		t.Fatalf("out = %q", out)
	}
	if !link.Healthy() {
		t.Fatal("fresh ring link reported unhealthy")
	}
}

func TestLinkerSelectsStreamForRemotePeer(t *testing.T) {
	g := echoGateway(t)
	l := NewLinker(LinkerOptions{
		Dial: func(addr string) (net.Conn, error) {
			cc, sc := rpc.Pair()
			g.Server().ServeConn(sc)
			return cc, nil
		},
	})
	defer l.Close()

	a, err := l.Connect(Peer{Addr: "tier-b:9000"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Connect(Peer{Addr: "tier-b:9000"})
	if err != nil {
		t.Fatal(err)
	}
	if kindOf(a) != "stream" || kindOf(b) != "stream" {
		t.Fatalf("remote peers selected %v/%v, want streams", kindOf(a), kindOf(b))
	}

	// Both links serve calls concurrently.
	var wg sync.WaitGroup
	for _, link := range []*Link{a, b} {
		link := link
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				out, err := link.CallSync("recognize", []byte("hive"))
				if err != nil {
					t.Error(err)
					return
				}
				if string(out) != "HIVE" {
					t.Errorf("out = %q", out)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestLinkerRejectsAmbiguousAndEmptyPeers(t *testing.T) {
	g := echoGateway(t)
	l := NewLinker(LinkerOptions{})
	defer l.Close()
	if _, err := l.Connect(Peer{Gateway: g, Addr: "x:1"}); err == nil {
		t.Fatal("ambiguous peer accepted")
	}
	if _, err := l.Connect(Peer{}); err == nil {
		t.Fatal("empty peer accepted")
	}
}

func TestLinkerCloseFailsLinksAndRefusesNew(t *testing.T) {
	g := echoGateway(t)
	l := NewLinker(LinkerOptions{
		Dial: func(addr string) (net.Conn, error) {
			cc, sc := rpc.Pair()
			g.Server().ServeConn(sc)
			return cc, nil
		},
	})
	ring, err := l.Connect(Peer{Gateway: g})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := l.Connect(Peer{Addr: "tier-b:9000"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ring.CallSync("recognize", nil); !errors.Is(err, rpc.ErrClosed) {
		t.Fatalf("ring call after close: err = %v, want ErrClosed", err)
	}
	if _, err := stream.CallSync("recognize", nil); !errors.Is(err, rpc.ErrClosed) {
		t.Fatalf("stream call after close: err = %v, want ErrClosed", err)
	}
	if _, err := l.Connect(Peer{Gateway: g}); !errors.Is(err, rpc.ErrClosed) {
		t.Fatalf("connect after close: err = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

// Failover rebuilds a link every time its endpoint turns unhealthy;
// the Linker drops the dead ones as it tracks the new, so it holds one
// link per peer however often that happens, and Close still fails the
// live ones.
func TestLinkerFailoverRebuildsKeepOneLinkPerPeer(t *testing.T) {
	g := echoGateway(t)
	l := NewLinker(LinkerOptions{
		Dial: func(addr string) (net.Conn, error) {
			cc, sc := rpc.Pair()
			g.Server().ServeConn(sc)
			return cc, nil
		},
	})
	peers := []Peer{{Gateway: g}, {Addr: "tier-b:9000"}}
	fcs := make([]*rpc.FailoverClient, len(peers))
	attempts := make([]atomic.Int64, len(peers))
	for i, p := range peers {
		n := &attempts[i]
		fcs[i] = l.Failover([]Peer{p}, rpc.FailoverOptions{Observer: func(string, []byte) func(error) {
			n.Add(1)
			return nil
		}})
		defer fcs[i].Close()
	}
	// closeLinks fails every link the Linker tracks: one per peer.
	closeLinks := func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		for _, lk := range l.links {
			lk.Close()
		}
	}
	const rebuilds = 100
	for i := 0; i <= rebuilds; i++ {
		if i > 0 {
			closeLinks() // force each peer's next call to rebuild
		}
		for _, fc := range fcs {
			if out, err := fc.Call(context.Background(), "recognize", []byte("hive")); err != nil || string(out) != "HIVE" {
				t.Fatalf("call after %d rebuilds: %q, %v", i, out, err)
			}
		}
	}
	// One attempt per call: every call after a close ran on a rebuilt
	// link, never on the closed one.
	for i := range attempts {
		if n := attempts[i].Load(); n != rebuilds+1 {
			t.Fatalf("peer %d made %d attempts for %d calls", i, n, rebuilds+1)
		}
	}
	l.mu.Lock()
	tracked := len(l.links)
	l.mu.Unlock()
	if tracked > len(peers) {
		t.Fatalf("Linker tracks %d links for %d peers after %d rebuilds", tracked, len(peers), rebuilds)
	}
	l.mu.Lock()
	live := append([]rpc.Transport(nil), l.links...)
	l.mu.Unlock()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, lk := range live {
		if _, err := lk.CallSync("recognize", nil); !errors.Is(err, rpc.ErrClosed) {
			t.Fatalf("live link %d after Close: err = %v, want ErrClosed", i, err)
		}
	}
}

// Regression: remote() used to dial under the Linker-wide mutex, so one
// hung dial (a blackholed peer) froze Connect to every other peer —
// co-located gateways included — and Close. A dial must block only
// callers connecting to that address.
func TestLinkerHungDialBlocksOnlyThatAddress(t *testing.T) {
	g := echoGateway(t)
	entered, release := make(chan struct{}), make(chan struct{})
	l := NewLinker(LinkerOptions{
		Dial: func(addr string) (net.Conn, error) {
			if addr == "blackhole:1" {
				close(entered)
				<-release
				return nil, errors.New("dial timed out")
			}
			cc, sc := rpc.Pair()
			g.Server().ServeConn(sc)
			return cc, nil
		},
	})
	stuck := make(chan error, 1)
	go func() {
		_, err := l.Connect(Peer{Addr: "blackhole:1"})
		stuck <- err
	}()
	<-entered

	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s blocked behind another address's hung dial", what)
		}
	}
	within("Connect to a co-located gateway", func() {
		if _, err := l.Connect(Peer{Gateway: g}); err != nil {
			t.Error(err)
		}
	})
	within("Connect to another address", func() {
		link, err := l.Connect(Peer{Addr: "tier-b:9000"})
		if err != nil {
			t.Error(err)
			return
		}
		if out, err := link.CallSync("recognize", []byte("ok")); err != nil || string(out) != "OK" {
			t.Errorf("call on the healthy link: %q, %v", out, err)
		}
	})
	within("Close", func() { l.Close() })

	close(release)
	select {
	case err := <-stuck:
		if err == nil {
			t.Fatal("connect through the hung dial succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("released Connect never returned")
	}
}

// The co-located null call — Link.Call over a ring into an Exposed
// function behind admission, as the HTTP null job runs it — allocates
// nothing: the caller's deadline is live, so the gateway arms no timer.
func TestRingLinkCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	cfg := DefaultConfig()
	cfg.Retries = 0
	rt := echoRuntime(cfg)
	defer rt.Close()
	gcfg := DefaultGatewayConfig()
	gcfg.StepRespawns = 0
	gcfg.Overload = &AdmissionConfig{MaxConcurrent: 256, QueueLen: 1024}
	g := NewGatewayConfig(rt, gcfg)
	defer g.Close()
	g.Expose("echo", "echo")
	l := NewLinker(LinkerOptions{})
	defer l.Close()
	link, err := l.Connect(Peer{Gateway: g})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := link.Call(ctx, "echo", payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ring Link.Call allocates %.1f per call, want 0", allocs)
	}
}
