package rpc

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

func TestFencedErrorRoundTrip(t *testing.T) {
	err := FencedError(3, 7)
	if !IsFenced(err) {
		t.Fatal("FencedError not recognised by IsFenced")
	}
	if got := string(err); got != "rpc: fenced; term=3 fence=7" {
		t.Fatalf("FencedError(3, 7) = %q: the wire form must carry both terms", got)
	}
	// The wire form survives re-wrapping as a plain ServerError (how it
	// arrives after crossing a connection).
	wire := ServerError(err.Error())
	if !IsFenced(wire) {
		t.Fatal("wire form not recognised")
	}
	if IsFenced(errors.New(string(err))) {
		t.Fatal("non-ServerError accepted")
	}
	if IsFenced(ServerError("rpc: not leader; leader=1")) {
		t.Fatal("redirect misclassified as fenced")
	}
}

// A fenced response re-routes the failover client to another endpoint
// — like a leader redirect, and like a redirect it is not counted as a
// retry.
func TestFailoverClientReroutesOnFenced(t *testing.T) {
	deposed, healthy := NewServer(), NewServer()
	deposed.Register("put", func([]byte) ([]byte, error) {
		return nil, FencedError(2, 5)
	})
	healthy.Register("put", func([]byte) ([]byte, error) {
		return []byte("committed"), nil
	})
	lns := make([]net.Listener, 2)
	for i, srv := range []*Server{deposed, healthy} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		go srv.Serve(ln)
		defer srv.Close()
	}

	opts := FailoverOptions{RetryBackoff: time.Millisecond}
	attempts := countAttempts(&opts)
	fc := DialFailover([]string{lns[0].Addr().String(), lns[1].Addr().String()}, opts)
	defer fc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := fc.Call(ctx, "put", nil)
	if err != nil {
		t.Fatalf("call across fenced endpoint failed: %v", err)
	}
	if string(out) != "committed" {
		t.Fatalf("out = %q", out)
	}
	if fc.Leader() != 1 {
		t.Fatalf("client still routed at %d, want the healthy endpoint 1", fc.Leader())
	}
	// One fenced attempt, then one on the healthy endpoint.
	if n := attempts.Load(); n != 2 {
		t.Fatalf("fenced reroute took %d attempts, want 2", n)
	}
}
