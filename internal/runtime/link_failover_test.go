package runtime

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/rpc"
)

// leaderGateway builds a gateway whose "who" method answers only while
// *leader holds id, redirecting to the current leader otherwise — the
// shape a controller replica's Admission gate gives real gateways.
func leaderGateway(t *testing.T, id int, leader *atomic.Int32) *Gateway {
	t.Helper()
	rt := New(DefaultConfig(), nil)
	t.Cleanup(rt.Close)
	rt.Register("fn", func(ctx context.Context, in []byte) ([]byte, error) {
		return append([]byte{byte('0' + id)}, in...), nil
	})
	cfg := DefaultGatewayConfig()
	cfg.Timeout = time.Second
	cfg.Admission = func() error {
		if cur := int(leader.Load()); cur != id {
			return rpc.NotLeaderError(cur)
		}
		return nil
	}
	g := NewGatewayConfig(rt, cfg)
	g.ExposeChain("who", []string{"fn"})
	t.Cleanup(g.Close)
	return g
}

// leaderKind reports the fast path calls to the client's believed
// leader ride: every link a Linker's failover client holds for a
// replica comes from Connect on that replica's Peer.
func leaderKind(t *testing.T, l *Linker, peers []Peer, fc *rpc.FailoverClient) string {
	t.Helper()
	lk, err := l.Connect(peers[fc.Leader()])
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	return kindOf(lk)
}

// TestLinkerFailoverFlipsTransportOnLeaderChange is the acceptance test
// for FailoverClient fast-path auto-selection: with the leader
// co-located the calls ride the shm ring; after a leader change to a
// remote replica the same client follows the redirect onto a mux
// stream, and the selected transport kinds prove it.
func TestLinkerFailoverFlipsTransportOnLeaderChange(t *testing.T) {
	var leader atomic.Int32 // replica 0 leads first
	local := leaderGateway(t, 0, &leader)
	remote := leaderGateway(t, 1, &leader)

	// The "remote" replica serves real TCP on loopback; the local one is
	// in-process.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go remote.Server().Serve(ln)

	l := NewLinker(LinkerOptions{})
	defer l.Close()
	peers := []Peer{
		{Gateway: local},
		{Addr: ln.Addr().String()},
	}
	fc := l.Failover(peers, rpc.FailoverOptions{Attempts: 8, RetryBackoff: 5 * time.Millisecond})
	defer fc.Close()

	out, err := fc.Call(context.Background(), "who", []byte("?"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "0?" {
		t.Fatalf("leader 0 answered %q", out)
	}
	if k := leaderKind(t, l, peers, fc); k != "ring" {
		t.Fatalf("co-located leader rides %v, want ring", k)
	}

	// Leadership moves to the remote replica: the next call must follow
	// the redirect and land on the mux-stream fast path.
	leader.Store(1)
	out, err = fc.Call(context.Background(), "who", []byte("?"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "1?" {
		t.Fatalf("leader 1 answered %q", out)
	}
	if fc.Leader() != 1 {
		t.Fatalf("believed leader = %d, want 1", fc.Leader())
	}
	if k := leaderKind(t, l, peers, fc); k != "stream" {
		t.Fatalf("remote leader rides %v, want stream", k)
	}

	// And back: leadership returns to the co-located replica, calls
	// return to the ring.
	leader.Store(0)
	if _, err := fc.Call(context.Background(), "who", []byte("?")); err != nil {
		t.Fatal(err)
	}
	if k := leaderKind(t, l, peers, fc); k != "ring" {
		t.Fatalf("restored co-located leader rides %v, want ring", k)
	}
}
