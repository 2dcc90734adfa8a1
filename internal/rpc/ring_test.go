package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestRing(t *testing.T, opts RingOptions) (*Server, *Ring) {
	t.Helper()
	srv := NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	r, err := NewRing(srv, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, r
}

// TestRingDeadlineDropsExpired pins deadline parity: a call whose ctx
// deadline has already passed is dropped unexecuted, answered with the
// typed deadline error, and counted in the server's DroppedExpired.
func TestRingDeadlineDropsExpired(t *testing.T) {
	var executed atomic.Int64
	srv, r := newTestRing(t, RingOptions{})
	srv.Register("count", func(p []byte) ([]byte, error) {
		executed.Add(1)
		return p, nil
	})

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := r.Call(ctx, "count", nil)
	if err == nil {
		t.Fatal("expired call succeeded")
	}
	// Either the ring dropped it server-side (typed wire error) or the
	// caller's own ctx fired first; both must leave the handler unrun.
	if !IsDeadlineExceeded(err) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired call returned untyped error: %v", err)
	}
	if executed.Load() != 0 {
		t.Fatal("expired call was executed")
	}
	if srv.DroppedExpired() == 0 && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("server-side drop not counted in DroppedExpired")
	}
}

// TestRingConcurrentProducers hammers one ring from many goroutines —
// the MPMC ticket protocol and the completion state machine must hold
// under the race detector — and checks every reply routes back to its
// own caller.
func TestRingConcurrentProducers(t *testing.T) {
	_, r := newTestRing(t, RingOptions{Slots: 64, Consumers: 4})
	const (
		producers = 16
		calls     = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := fmt.Sprintf("p%d-c%d", p, i)
				got, err := r.CallSync("echo", []byte(want))
				if err != nil {
					errs <- fmt.Errorf("producer %d call %d: %w", p, i, err)
					return
				}
				if string(got) != want {
					errs <- fmt.Errorf("producer %d call %d: cross-wired reply %q", p, i, got)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRingCloseDuringSend closes the ring while producers are
// mid-flight: every call must resolve promptly — success or ErrClosed —
// with nobody stranded, and Close must return.
func TestRingCloseDuringSend(t *testing.T) {
	srv := NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	defer srv.Close()
	r, err := NewRing(srv, RingOptions{Slots: 8, Consumers: 2})
	if err != nil {
		t.Fatal(err)
	}

	const producers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	bad := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := r.CallSync("echo", []byte("x"))
				if err != nil && !errors.Is(err, ErrClosed) {
					bad <- err
					return
				}
				if err != nil {
					return // closed: done
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let traffic build
	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("ring Close wedged with producers in flight")
	}
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a producer was stranded by close-during-send")
	}
	close(bad)
	for err := range bad {
		t.Fatalf("call failed with non-close error during teardown: %v", err)
	}
	if r.Healthy() {
		t.Fatal("closed ring reports healthy")
	}
}

// TestRingReconnect pins the reconnect story: after a ring closes, a
// fresh ring on the same server carries traffic (the co-located tier
// re-established its shared-memory link).
func TestRingReconnect(t *testing.T) {
	srv := NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	defer srv.Close()

	r1, err := NewRing(srv, RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.CallSync("echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	r1.Close()
	if _, err := r1.CallSync("echo", []byte("b")); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on closed ring: %v", err)
	}

	r2, err := NewRing(srv, RingOptions{})
	if err != nil {
		t.Fatalf("reconnect ring: %v", err)
	}
	got, err := r2.CallSync("echo", []byte("c"))
	if err != nil || string(got) != "c" {
		t.Fatalf("call over reconnected ring: %q %v", got, err)
	}
	r2.Close()
}

// TestRingServerCloseClosesRings pins lifecycle: Server.Close tears
// down attached rings, and NewRing on a closed server refuses.
func TestRingServerCloseClosesRings(t *testing.T) {
	srv := NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	r, err := NewRing(srv, RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if r.Healthy() {
		t.Fatal("ring survived Server.Close")
	}
	if _, err := NewRing(srv, RingOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewRing on closed server: %v", err)
	}
}

// TestRingCancelPropagatesToHandler pins zero-copy cancellation: the
// caller's ctx is handed to the handler directly, so cancelling the
// call cancels the handler without any cancel-frame machinery.
func TestRingCancelPropagatesToHandler(t *testing.T) {
	srv := NewServer()
	entered := make(chan struct{})
	srv.RegisterCtx("block", func(ctx context.Context, p []byte) ([]byte, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	defer srv.Close()
	r, err := NewRing(srv, RingOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := r.Call(ctx, "block", nil)
		res <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-res:
		// Two legitimate outcomes race: the caller abandons first
		// (typed context.Canceled) or the handler observes the cancel
		// and returns ctx.Err(), which crosses back as a ServerError
		// with the same text — exactly what the framed path reports.
		var se ServerError
		if !errors.Is(err, context.Canceled) &&
			!(errors.As(err, &se) && string(se) == context.Canceled.Error()) {
			t.Fatalf("cancelled ring call returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled ring call never returned")
	}
}

// TestRingBackpressure pins that a full ring backpressures callers
// rather than dropping: with consumers blocked, more calls than slots
// must all eventually succeed once the consumers resume.
func TestRingBackpressure(t *testing.T) {
	srv := NewServer()
	release := make(chan struct{})
	srv.Register("gate", func(p []byte) ([]byte, error) {
		<-release
		return p, nil
	})
	defer srv.Close()
	r, err := NewRing(srv, RingOptions{Slots: 4, Consumers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const calls = 32
	var ok atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.CallSync("gate", nil); err == nil {
				ok.Add(1)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("backpressured callers never drained")
	}
	if ok.Load() != calls {
		t.Fatalf("only %d/%d calls succeeded through the full ring", ok.Load(), calls)
	}
}

// A framed handler's context is passive, wrapped or not; a ring handler
// runs on the caller's own context, which is not.
func TestPassiveDeadlineMarksFramedRequests(t *testing.T) {
	type key struct{}
	srv := NewServer()
	srv.RegisterCtx("probe", func(ctx context.Context, _ []byte) ([]byte, error) {
		wrapped := context.WithValue(ctx, key{}, 1)
		return []byte(fmt.Sprint(PassiveDeadline(ctx), PassiveDeadline(wrapped))), nil
	})
	c := pipeClientServer(t, srv, 1)
	r, err := NewRing(srv, RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, tc := range []struct {
		tr   Transport
		want string
	}{{c, "true true"}, {r, "false false"}} {
		out, err := tc.tr.CallSync("probe", nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != tc.want {
			t.Fatalf("%T: PassiveDeadline = %s, want %s", tc.tr, out, tc.want)
		}
	}
	if PassiveDeadline(context.Background()) {
		t.Fatal("Background reported passive")
	}
}
