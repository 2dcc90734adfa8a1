package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// --- shed / deadline error wire round-trips -------------------------

func TestShedErrorRoundTrip(t *testing.T) {
	err := ShedError(40 * time.Millisecond)
	if !IsShed(err) {
		t.Fatal("ShedError not recognised by IsShed")
	}
	ra, ok := ShedRetryAfter(err)
	if !ok || ra != 40*time.Millisecond {
		t.Fatalf("retry-after = %v, %v", ra, ok)
	}
	// Across the wire a handler error arrives as ServerError(err.Error()).
	wire := ServerError(err.Error())
	if !IsShed(wire) {
		t.Fatal("shed error lost its identity across the wire")
	}
	if ra, ok := ShedRetryAfter(wire); !ok || ra != 40*time.Millisecond {
		t.Fatalf("wire retry-after = %v, %v", ra, ok)
	}
	if IsShed(errors.New("rpc: something else")) {
		t.Fatal("IsShed matched an unrelated error")
	}
}

func TestDeadlineExceededErrorRoundTrip(t *testing.T) {
	err := &DeadlineExceededError{Late: 12 * time.Millisecond}
	if !IsDeadlineExceeded(err) {
		t.Fatal("typed deadline error not recognised")
	}
	wire := ServerError(err.Error())
	if !IsDeadlineExceeded(wire) {
		t.Fatal("deadline error lost its identity across the wire")
	}
	if !IsDeadlineExceeded(context.DeadlineExceeded) {
		t.Fatal("context.DeadlineExceeded not recognised")
	}
	if !IsDeadlineExceeded(fmt.Errorf("wrapped: %w", context.DeadlineExceeded)) {
		t.Fatal("wrapped context.DeadlineExceeded not recognised")
	}
	if IsDeadlineExceeded(ShedError(time.Millisecond)) {
		t.Fatal("shed classified as deadline exceeded")
	}
}

// --- wire deadline propagation ---------------------------------------

// TestWireDeadlinePropagation checks a client ctx deadline crosses the
// wire and is visible to the server handler's context.
func TestWireDeadlinePropagation(t *testing.T) {
	srv := NewServer()
	got := make(chan time.Time, 1)
	srv.RegisterCtx("m", func(ctx context.Context, in []byte) ([]byte, error) {
		d, ok := ctx.Deadline()
		if !ok {
			d = time.Time{}
		}
		got <- d
		return in, nil
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	cl := NewClient(cc, 4)
	defer cl.Close()
	defer srv.Close()

	want := time.Now().Add(5 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	if _, err := cl.Call(ctx, "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	d := <-got
	if d.IsZero() {
		t.Fatal("deadline did not propagate to the server handler")
	}
	if diff := d.Sub(want); diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("propagated deadline off by %v", diff)
	}

	// A deadline-free call must not grow one on the way over.
	if _, err := cl.Call(context.Background(), "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := <-got; !d.IsZero() {
		t.Fatalf("deadline-free call arrived with deadline %v", d)
	}
}

// TestServerDropsExpiredQueuedWork wedges a one-worker server pool and
// checks that a request whose wire deadline expires while queued is
// answered with DeadlineExceededError without ever executing.
func TestServerDropsExpiredQueuedWork(t *testing.T) {
	srv := NewServer()
	srv.workers = 1
	started := make(chan struct{})
	release := make(chan struct{})
	var executed atomic.Int64
	srv.RegisterCtx("slow", func(ctx context.Context, in []byte) ([]byte, error) {
		close(started)
		<-release
		return in, nil
	})
	srv.RegisterCtx("doomed", func(ctx context.Context, in []byte) ([]byte, error) {
		executed.Add(1)
		return in, nil
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	cl := NewClient(cc, 4)
	defer cl.Close()
	defer srv.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := cl.Call(context.Background(), "slow", []byte("x"))
		slowDone <- err
	}()
	<-started // the single worker is now wedged
	// Queue the doomed request behind it with a deadline that expires
	// while it waits. The client's own timer fires at the same instant,
	// so the caller sees its local deadline; the server-side proof is
	// that the handler never ran and DroppedExpired counted the drop.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(50*time.Millisecond))
	defer dcancel()
	_, err := cl.Call(dctx, "doomed", []byte("x"))
	if err == nil {
		t.Fatal("expired queued call succeeded")
	}
	if !IsDeadlineExceeded(err) {
		t.Fatalf("expired queued call error = %v, want deadline exceeded", err)
	}

	close(release) // unwedge: the worker dequeues the expired task next
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call failed: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.DroppedExpired() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.DroppedExpired(); n != 1 {
		t.Fatalf("server dropped-expired counter = %d, want 1", n)
	}
	if executed.Load() != 0 {
		t.Fatalf("expired request executed %d times, want 0", executed.Load())
	}
}

// Regression: the server skipped a request frame too short to hold its
// deadline without replying, so the call hung until its own ctx fired
// (forever for CallSync). It now tears the connection down, failing the
// call at once.
func TestMalformedDeadlineFrameFailsPendingCall(t *testing.T) {
	srv := echoServer()
	defer srv.Close()
	cc, sc := Pair()
	srv.ServeConn(sc)
	cl := NewClient(cc, 1)
	defer cl.Close()

	call := getCall("echo")
	cl.mu.Lock()
	cl.pending[1] = call
	cl.mu.Unlock()
	short, err := encodeFrame(kindRequest, 1, "echo", []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	go cc.Write(*short)
	select {
	case <-call.done:
		if !errors.Is(call.err, ErrClosed) {
			t.Fatalf("call on a malformed deadline frame: err = %v, want ErrClosed", call.err)
		}
	case <-time.After(time.Second):
		t.Fatal("call on a malformed deadline frame never returned")
	}
}

// --- hardened client integration -------------------------------------

// TestFailoverShedIsNotAFailure checks a server-side shed is not
// retried.
func TestFailoverShedIsNotAFailure(t *testing.T) {
	srv := NewServer()
	srv.RegisterCtx("m", func(ctx context.Context, in []byte) ([]byte, error) {
		return nil, ShedError(25 * time.Millisecond)
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	defer srv.Close()
	opts := FailoverOptions{Attempts: 4}
	attempts := countAttempts(&opts)
	rc := oneEndpoint(func() (net.Conn, error) { return cc, nil }, opts)
	defer rc.Close()

	for i := 0; i < 3; i++ {
		_, err := rc.Call(context.Background(), "m", []byte("x"))
		if !IsShed(err) {
			t.Fatalf("call %d: err = %v, want shed", i, err)
		}
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("3 shed calls took %d attempts, want 3", n)
	}
}
