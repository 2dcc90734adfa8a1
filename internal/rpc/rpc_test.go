package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func pipeClientServer(t *testing.T, srv *Server, callers int) *Client {
	t.Helper()
	cc, sc := Pair()
	srv.ServeConn(sc)
	c := NewClient(cc, callers)
	t.Cleanup(func() { c.Close(); srv.Close() })
	return c
}

func echoServer() *Server {
	s := NewServer()
	s.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	s.Register("fail", func(p []byte) ([]byte, error) { return nil, errors.New("boom") })
	return s
}

func TestFrameRoundTrip(t *testing.T) {
	buf, err := encodeFrame(kindResponse, 42, "faceRecognition", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(bytes.NewReader(*buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.kind != kindResponse || out.callID != 42 || string(out.method) != "faceRecognition" || string(out.payload) != "payload" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	if _, err := encodeFrame(kindResponse, 1, "", make([]byte, maxFrame)); err == nil {
		t.Fatal("oversize frame accepted")
	}
	// Corrupt length prefix on read side.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	buf, err := encodeFrame(kindResponse, 7, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(bytes.NewReader(*buf))
	if err != nil {
		t.Fatal(err)
	}
	if f.callID != 7 || len(f.payload) != 0 || len(f.method) != 0 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestCallSyncEcho(t *testing.T) {
	c := pipeClientServer(t, echoServer(), 4)
	reply, err := c.CallSync("echo", []byte("hello swarm"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "hello swarm" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestCallHandlerError(t *testing.T) {
	c := pipeClientServer(t, echoServer(), 4)
	_, err := c.CallSync("fail", nil)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestCallMethodNotFound(t *testing.T) {
	c := pipeClientServer(t, echoServer(), 4)
	_, err := c.CallSync("nope", nil)
	if err == nil || !strings.Contains(err.Error(), "method not found") {
		t.Fatalf("err = %v", err)
	}
}

func TestAsyncCallsComplete(t *testing.T) {
	c := pipeClientServer(t, echoServer(), 8)
	const n = 50
	replies := make(chan []byte, n)
	for i := 0; i < n; i++ {
		go func() {
			reply, err := c.CallSync("echo", []byte(fmt.Sprintf("msg-%d", i)))
			if err != nil {
				t.Error(err)
			}
			replies <- reply
		}()
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		seen[string(<-replies)] = true
	}
	if len(seen) != n {
		t.Fatalf("distinct replies = %d", len(seen))
	}
}

func TestConcurrentCallersMultiplex(t *testing.T) {
	srv := NewServer()
	srv.Register("slow", func(p []byte) ([]byte, error) {
		time.Sleep(10 * time.Millisecond)
		return p, nil
	})
	c := pipeClientServer(t, srv, 16)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.CallSync("slow", []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// 16 concurrent 10ms calls should overlap, not serialize to 160ms.
	if elapsed := time.Since(start); elapsed > 120*time.Millisecond {
		t.Fatalf("calls serialized: %v", elapsed)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	srv.Register("block", func(p []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	c := NewClient(cc, 4)
	errs := make(chan error, 1)
	go func() {
		_, err := c.CallSync("block", nil)
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("pending call not failed on close")
	}
	close(block)
	srv.Close()
}

func TestCallAfterCloseFailsFast(t *testing.T) {
	c := pipeClientServer(t, echoServer(), 4)
	c.Close()
	if _, err := c.CallSync("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerOverTCP(t *testing.T) {
	srv := echoServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.CallSync("echo", []byte("over tcp"))
	if err != nil || string(reply) != "over tcp" {
		t.Fatalf("reply=%q err=%v", reply, err)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	srv := echoServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func TestServeConnAfterCloseRejected(t *testing.T) {
	srv := echoServer()
	srv.Close()
	cc, sc := Pair()
	srv.ServeConn(sc)
	c := NewClient(cc, 1)
	defer c.Close()
	if _, err := c.CallSync("echo", nil); err == nil {
		t.Fatal("call succeeded on closed server")
	}
}

func TestRegisterReplacesHandler(t *testing.T) {
	srv := NewServer()
	srv.Register("m", func(p []byte) ([]byte, error) { return []byte("v1"), nil })
	srv.Register("m", func(p []byte) ([]byte, error) { return []byte("v2"), nil })
	c := pipeClientServer(t, srv, 2)
	reply, err := c.CallSync("m", nil)
	if err != nil || string(reply) != "v2" {
		t.Fatalf("reply=%q err=%v", reply, err)
	}
}

// Satellite fix: the caller pool must bound *in-flight* calls, not just
// concurrent writes — slots are held until the reply arrives.
func TestCallerPoolBoundsInFlight(t *testing.T) {
	var inFlight, peak atomic.Int32
	release := make(chan struct{})
	srv := NewServer()
	srv.Register("hold", func(p []byte) ([]byte, error) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-release
		inFlight.Add(-1)
		return nil, nil
	})
	const pool = 4
	c := pipeClientServer(t, srv, pool)
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, err := c.CallSync("hold", nil)
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let calls pile onto the pool
	close(release)
	for i := 0; i < 16; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > pool {
		t.Fatalf("in-flight peak = %d, pool = %d: semaphore does not bound calls", p, pool)
	}
}

// Satellite fix: failAll must preserve the root cause of the teardown
// instead of a bare ErrClosed.
func TestFailAllPreservesRootCause(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	defer close(block)
	srv.Register("block", func(p []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	defer srv.Close()
	// Feed the client a torn frame by severing the server side while a
	// call is outstanding, then check the surfaced error wraps ErrClosed
	// and is not *just* ErrClosed when a cause exists.
	c := NewClient(cc, 4)
	errs := make(chan error, 1)
	go func() {
		_, err := c.CallSync("block", nil)
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond)
	sc.Close() // read side sees io.ErrClosedPipe
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed chain", err)
		}
	case <-time.After(time.Second):
		t.Fatal("call not failed on teardown")
	}
	// A later call reports the preserved cause too.
	if _, err := c.CallSync("block", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v", err)
	}
	c.Close()
}

func TestFailAllWrapsReadError(t *testing.T) {
	c := &Client{conn: nil, pending: map[uint64]*pendingCall{}}
	call := getCall("m")
	c.pending[1] = call
	rootCause := errors.New("torn frame: invalid frame length 7")
	c.failAll(rootCause)
	<-call.done
	if !errors.Is(call.err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed wrapper", call.err)
	}
	if !strings.Contains(call.err.Error(), "torn frame") {
		t.Fatalf("root cause dropped: %v", call.err)
	}
}

func TestCallHonoursContextDeadline(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	defer close(block)
	srv.Register("block", func(p []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	c := pipeClientServer(t, srv, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Call(ctx, "block", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline not enforced")
	}
	// The slot must be returned: further calls proceed.
	if reply, err := func() ([]byte, error) {
		srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
		ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
		defer cancel2()
		return c.Call(ctx2, "echo", []byte("after"))
	}(); err != nil || string(reply) != "after" {
		t.Fatalf("pool slot leaked after cancelled call: %q %v", reply, err)
	}
}

func TestCancelPropagatesToServerHandler(t *testing.T) {
	srv := NewServer()
	handlerCancelled := make(chan struct{})
	srv.RegisterCtx("watch", func(ctx context.Context, p []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			close(handlerCancelled)
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, errors.New("handler never cancelled")
		}
	})
	c := pipeClientServer(t, srv, 4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := c.Call(ctx, "watch", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	select {
	case <-handlerCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("cancel frame did not reach the server handler")
	}
}

func TestConnTeardownCancelsServerHandlers(t *testing.T) {
	srv := NewServer()
	started, handlerCancelled := make(chan struct{}), make(chan struct{})
	srv.RegisterCtx("watch", func(ctx context.Context, p []byte) ([]byte, error) {
		close(started)
		<-ctx.Done()
		close(handlerCancelled)
		return nil, ctx.Err()
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	defer srv.Close()
	c := NewClient(cc, 4)
	go c.CallSync("watch", nil)
	<-started // the handler is in flight: there is something to cancel
	c.Close() // dropping the conn must cancel the in-flight handler
	select {
	case <-handlerCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("handler not cancelled on connection teardown")
	}
}

// Property: arbitrary binary payloads echo back unchanged over the full
// client/server stack.
func TestEchoPayloadFidelityProperty(t *testing.T) {
	c := pipeClientServer(t, echoServer(), 8)
	prop := func(payload []byte) bool {
		reply, err := c.CallSync("echo", payload)
		return err == nil && bytes.Equal(reply, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
