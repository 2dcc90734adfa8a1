package rpc

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- FailoverClient over one endpoint: the reconnecting client ---

// flakyDialer yields connections that die after serving `failFirst`
// dials, then healthy ones, all against the same server.
type flakyDialer struct {
	srv       *Server
	mu        sync.Mutex
	dials     int
	failFirst int // these many initial dials yield pre-closed conns
}

func (d *flakyDialer) dial() (net.Conn, error) {
	d.mu.Lock()
	n := d.dials
	d.dials++
	d.mu.Unlock()
	cc, sc := Pair()
	if n < d.failFirst {
		cc.Close()
		sc.Close()
		return cc, nil
	}
	d.srv.ServeConn(sc)
	return cc, nil
}

// hardenedOpts allows 4 retries on a short pause, each attempt bounded
// by a per-call timeout.
func hardenedOpts() FailoverOptions {
	return FailoverOptions{
		Attempts:     5,
		RetryBackoff: time.Millisecond,
		CallTimeout:  2 * time.Second,
	}
}

// oneEndpoint builds the degenerate one-replica client over a dial
// function.
func oneEndpoint(dial func() (net.Conn, error), opts FailoverOptions) *FailoverClient {
	return NewFailover([]func() (Transport, error){ConnEndpoint(dial, 8)}, opts)
}

// countAttempts sets opts.Observer to count the attempts a client makes
// on a built transport.
func countAttempts(opts *FailoverOptions) *atomic.Int64 {
	n := new(atomic.Int64)
	opts.Observer = func(string, []byte) func(error) {
		n.Add(1)
		return nil
	}
	return n
}

func TestFailoverRetriesDeadConnections(t *testing.T) {
	srv := echoServer()
	defer srv.Close()
	d := &flakyDialer{srv: srv, failFirst: 2}
	rc := oneEndpoint(d.dial, hardenedOpts())
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := rc.Call(ctx, "echo", []byte("survives"))
	if err != nil {
		t.Fatalf("call over flaky dialer = %v", err)
	}
	if string(out) != "survives" {
		t.Fatalf("out = %q", out)
	}
	if d.dials != 3 {
		t.Fatalf("dials = %d, want 3 (two dead connections, then one that serves)", d.dials)
	}
}

func TestFailoverServerErrorNotRetried(t *testing.T) {
	srv := echoServer() // "fail" handler always errors
	defer srv.Close()
	d := &flakyDialer{srv: srv}
	opts := hardenedOpts()
	attempts := countAttempts(&opts)
	rc := oneEndpoint(d.dial, opts)
	defer rc.Close()

	_, err := rc.Call(context.Background(), "fail", nil)
	var se ServerError
	if !errors.As(err, &se) || err.Error() != "boom" {
		t.Fatalf("err = %v, want ServerError boom", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("application error took %d attempts, want 1", n)
	}
}

// TestFailoverRedialsSeveredConnection severs the client's connection
// between calls: the next call must notice and redial.
func TestFailoverRedialsSeveredConnection(t *testing.T) {
	srv := echoServer()
	defer srv.Close()

	var conns []net.Conn
	var mu sync.Mutex
	dial := func() (net.Conn, error) {
		cc, sc := Pair()
		srv.ServeConn(sc)
		mu.Lock()
		conns = append(conns, cc)
		mu.Unlock()
		return cc, nil
	}
	rc := oneEndpoint(dial, hardenedOpts())
	defer rc.Close()

	if _, err := rc.Call(context.Background(), "echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Sever the first connection out from under the client; the next
	// call must notice and redial.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := rc.Call(context.Background(), "echo", []byte("b")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after severed connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	n := len(conns)
	mu.Unlock()
	if n < 2 {
		t.Fatalf("dials = %d, want a reconnect", n)
	}
}

func TestFailoverCallTimeoutRetriesWithinDeadline(t *testing.T) {
	// First invocation hangs; the per-attempt timeout cuts it and the
	// retry succeeds — the (a) acceptance behaviour at the unit level.
	var calls atomic.Int32
	srv := NewServer()
	srv.RegisterCtx("sometimes", func(ctx context.Context, p []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return []byte("ok"), nil
	})
	defer srv.Close()
	d := &flakyDialer{srv: srv}
	opts := hardenedOpts()
	opts.CallTimeout = 30 * time.Millisecond
	rc := oneEndpoint(d.dial, opts)
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := rc.Call(ctx, "sometimes", nil)
	if err != nil || string(out) != "ok" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	if calls.Load() < 2 {
		t.Fatal("timed-out attempt was not retried")
	}
}

func TestFailoverRespectsCallerDeadline(t *testing.T) {
	srv := NewServer()
	srv.RegisterCtx("hang", func(ctx context.Context, p []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	defer srv.Close()
	d := &flakyDialer{srv: srv}
	opts := hardenedOpts()
	opts.CallTimeout = 0
	rc := oneEndpoint(d.dial, opts)
	defer rc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rc.Call(ctx, "hang", nil)
	if err == nil {
		t.Fatal("hung call returned")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("caller deadline not honoured promptly")
	}
}
