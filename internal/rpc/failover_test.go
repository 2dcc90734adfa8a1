package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNotLeaderErrorRoundTrip(t *testing.T) {
	for _, leader := range []int{-1, 0, 7} {
		err := NotLeaderError(leader)
		got, ok := RedirectTarget(err)
		if !ok || got != leader {
			t.Fatalf("RedirectTarget(%v) = %d,%v; want %d,true", err, got, ok, leader)
		}
	}
	if _, ok := RedirectTarget(ServerError("boom")); ok {
		t.Fatal("plain server error misread as redirect")
	}
	if _, ok := RedirectTarget(errors.New("transport")); ok {
		t.Fatal("transport error misread as redirect")
	}
}

// serveReplicaSet builds n servers where only the leader answers; the
// others redirect to it. Returns one endpoint factory per listener and
// a setter to move leadership.
func serveReplicaSet(t *testing.T, n int) ([]func() (Transport, error), *atomic.Int64, *[]*Server) {
	t.Helper()
	var leader atomic.Int64
	dials := make([]func() (Transport, error), n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		i := i
		srv := NewServer()
		srv.Register("work", func(payload []byte) ([]byte, error) {
			if int(leader.Load()) != i {
				return nil, NotLeaderError(int(leader.Load()))
			}
			return append([]byte("done:"), payload...), nil
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		addr := ln.Addr().String()
		dials[i] = ConnEndpoint(func() (net.Conn, error) { return net.Dial("tcp", addr) }, 8)
		servers[i] = srv
	}
	return dials, &leader, &servers
}

func TestFailoverClientFollowsRedirect(t *testing.T) {
	dials, leader, _ := serveReplicaSet(t, 3)
	leader.Store(2)
	fc := NewFailover(dials, FailoverOptions{RetryBackoff: time.Millisecond})
	defer fc.Close()

	out, err := fc.Call(context.Background(), "work", []byte("x"))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(out) != "done:x" {
		t.Fatalf("out = %q", out)
	}
	if fc.Leader() != 2 {
		t.Fatalf("client routed to %d, want 2", fc.Leader())
	}
	// Subsequent calls go straight to the leader.
	if _, err := fc.Call(context.Background(), "work", []byte("y")); err != nil {
		t.Fatalf("second call: %v", err)
	}
}

func TestFailoverClientSweepsPastDeadEndpoint(t *testing.T) {
	dials, leader, servers := serveReplicaSet(t, 3)
	leader.Store(0)
	fc := NewFailover(dials, FailoverOptions{RetryBackoff: time.Millisecond})
	defer fc.Close()
	if _, err := fc.Call(context.Background(), "work", nil); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}

	// Kill the leader's server and move leadership: the client must
	// sweep to a live endpoint and follow its redirect.
	(*servers)[0].Close()
	leader.Store(1)
	out, err := fc.Call(context.Background(), "work", []byte("z"))
	if err != nil {
		t.Fatalf("failover call: %v", err)
	}
	if string(out) != "done:z" {
		t.Fatalf("out = %q", out)
	}
	if fc.Leader() != 1 {
		t.Fatalf("client routed to %d, want 1", fc.Leader())
	}
}

func TestFailoverClientSurfacesServerErrors(t *testing.T) {
	srv := NewServer()
	srv.Register("work", func([]byte) ([]byte, error) {
		return nil, ServerError("application failure")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	addr := ln.Addr().String()
	fc := DialFailover([]string{addr}, FailoverOptions{RetryBackoff: time.Millisecond})
	defer fc.Close()

	_, err = fc.Call(context.Background(), "work", nil)
	var se ServerError
	if !errors.As(err, &se) || string(se) != "application failure" {
		t.Fatalf("err = %v, want the server error surfaced unretried", err)
	}
}

// Attempts is the whole per-call bound on amplification: against a
// replica set that never answers, one call costs exactly Attempts
// endpoint builds, sweeping round the endpoints, and then gives up.
func TestFailoverClientGivesUpWhenAllDead(t *testing.T) {
	const attempts = 5
	var builds atomic.Int32
	dead := func() (Transport, error) {
		builds.Add(1)
		return nil, errors.New("connection refused")
	}
	fc := NewFailover([]func() (Transport, error){dead, dead, dead},
		FailoverOptions{Attempts: attempts, RetryBackoff: time.Millisecond})
	defer fc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := fc.Call(ctx, "work", nil)
	if err == nil {
		t.Fatal("call to dead replica set succeeded")
	}
	if want := fmt.Sprintf("after %d attempts", attempts); !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to say %q", err, want)
	}
	if n := builds.Load(); n != attempts {
		t.Fatalf("factories invoked %d times in total, want %d", n, attempts)
	}
}

// Regression: the endpoint factory used to run under the client-wide
// mutex, so one hung dial (a blackholed peer) froze Leader, Close and
// every caller of every other endpoint. Building one endpoint's
// transport must block only callers of that endpoint.
func TestFailoverBlockedFactoryBlocksOnlyItsEndpoint(t *testing.T) {
	srv := echoServer()
	t.Cleanup(srv.Close)
	entered, release := make(chan struct{}), make(chan struct{})
	var hung atomic.Int32
	fc := NewFailover([]func() (Transport, error){
		func() (Transport, error) { // endpoint 0: blackholed
			hung.Add(1)
			close(entered)
			<-release
			return nil, errors.New("dial timed out")
		},
		func() (Transport, error) { return pipeClientServer(t, srv, 4), nil },
	}, FailoverOptions{Attempts: 1})

	stuck := make(chan error, 1)
	go func() {
		_, err := fc.Call(context.Background(), "echo", nil)
		stuck <- err
	}()
	<-entered // the first caller is now inside endpoint 0's factory

	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s blocked behind another endpoint's hung factory", what)
		}
	}
	within("Leader()", func() { fc.Leader() })
	// A second caller of the hung endpoint can still leave on its ctx.
	within("a caller whose ctx expired", func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if _, err := fc.Call(ctx, "echo", nil); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("parked caller returned %v, want its deadline", err)
		}
	})
	// A call routed to the other endpoint completes.
	fc.route(0, 1)
	within("a call on endpoint 1", func() {
		if out, err := fc.Call(context.Background(), "echo", []byte("ok")); err != nil || string(out) != "ok" {
			t.Errorf("call on the healthy endpoint: %q, %v", out, err)
		}
	})
	within("Close()", fc.Close)

	close(release)
	select {
	case err := <-stuck:
		if err == nil {
			t.Fatal("call through the hung factory succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("released caller never returned")
	}
	if n := hung.Load(); n != 1 {
		t.Fatalf("hung factory invoked %d times, want 1", n)
	}
}

// Regression: Close used to set no flag, so a later Call silently
// re-dialled every endpoint and leaked the connections.
func TestFailoverCloseMeansClosed(t *testing.T) {
	srv := echoServer()
	t.Cleanup(srv.Close)
	var builds atomic.Int32
	fc := NewFailover([]func() (Transport, error){
		func() (Transport, error) {
			builds.Add(1)
			return pipeClientServer(t, srv, 4), nil
		},
	}, FailoverOptions{})
	if _, err := fc.Call(context.Background(), "echo", nil); err != nil {
		t.Fatal(err)
	}
	held := heldTransport(fc, 0)
	fc.Close()
	if held.Healthy() {
		t.Fatal("Close left the endpoint's transport up")
	}
	if _, err := fc.Call(context.Background(), "echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call after Close = %v, want ErrClosed", err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("factory invoked %d times, want 1: a closed client re-dialled", n)
	}
	if heldTransport(fc, 0) != nil {
		t.Fatal("closed client still holds a transport")
	}
}

// Callers parked behind a build that then fails take that failure as
// their own instead of each re-running the factory: a dead endpoint
// under load costs one dial per wave, not one per caller (the dial storm
// starved the election it was waiting on).
func TestFailoverParkedCallersShareOneFailedBuild(t *testing.T) {
	const callers = 16
	entered, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int32
	fc := NewFailover([]func() (Transport, error){
		func() (Transport, error) {
			if builds.Add(1) == 1 {
				close(entered)
				<-release
			}
			return nil, errors.New("connection refused")
		},
	}, FailoverOptions{Attempts: 1})
	defer fc.Close()

	errs := make(chan error, callers)
	call := func() {
		_, err := fc.Call(context.Background(), "echo", nil)
		errs <- err
	}
	go call()
	<-entered
	for i := 1; i < callers; i++ {
		go call()
	}
	time.Sleep(20 * time.Millisecond) // let the rest park at the gate
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "connection refused") {
			t.Fatalf("caller %d: err = %v, want the build's failure", i, err)
		}
	}
	if n := builds.Load(); n > 2 {
		t.Fatalf("%d parked callers ran the factory %d times, want 1 (2 if one arrived late)", callers, n)
	}
	// The verdict is not cached: a caller arriving afterwards dials again.
	before := builds.Load()
	call()
	<-errs
	if builds.Load() != before+1 {
		t.Fatal("a later caller did not re-run the factory")
	}
}

// DialFailover's endpoint is a Client that owns its connection: after
// repeated rebuilds and Close, the server holds no connection. An
// endpoint that only flagged itself closed would leave one per rebuild.
func TestDialFailoverStreamOwnsItsConnection(t *testing.T) {
	srv := echoServer()
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	fc := DialFailover([]string{ln.Addr().String()}, FailoverOptions{})

	const rebuilds = 10
	var prev *Client
	for i := 0; i <= rebuilds; i++ {
		if out, err := fc.Call(context.Background(), "echo", []byte("x")); err != nil || string(out) != "x" {
			t.Fatalf("call %d: %q, %v", i, out, err)
		}
		s, ok := heldTransport(fc, 0).(*Client)
		if !ok {
			t.Fatalf("endpoint 0 is %T, want a *Client", heldTransport(fc, 0))
		}
		if s == prev {
			t.Fatalf("call %d ran on the transport closed before it", i)
		}
		prev = s
		if i < rebuilds {
			s.Close() // force the next call to rebuild
		}
	}
	fc.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.lnMu.Lock()
		open := len(srv.conns)
		srv.lnMu.Unlock()
		if open == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d open connections after %d rebuilds and Close, want 0", open, rebuilds)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldTransport returns the transport endpoint idx currently holds (nil
// before its first build).
func heldTransport(f *FailoverClient, idx int) Transport {
	if lt := f.eps[idx].live.Load(); lt != nil {
		return lt.Transport
	}
	return nil
}
