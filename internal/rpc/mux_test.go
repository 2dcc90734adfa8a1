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

func muxPair(t *testing.T, workers, callers int) (*Server, *Client) {
	t.Helper()
	srv := NewServer()
	if workers > 0 {
		srv.workers = workers
	}
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	cc, sc := Pair()
	srv.ServeConn(sc)
	c := NewClient(cc, callers)
	t.Cleanup(func() { c.Close(); srv.Close() })
	return srv, c
}

// TestStreamBasicRoundTrip pins that calls on distinct streams of one
// connection route their replies back to the right stream's caller.
func TestStreamBasicRoundTrip(t *testing.T) {
	_, c := muxPair(t, 0, 4)
	s1 := c.Stream(4)
	s2 := c.Stream(4)
	if s1.id == s2.id || s1.id == 0 || s2.id == 0 {
		t.Fatalf("stream ids not distinct/nonzero: %d %d", s1.id, s2.id)
	}
	for i := 0; i < 50; i++ {
		w1, w2 := fmt.Sprintf("s1-%d", i), fmt.Sprintf("s2-%d", i)
		g1, err1 := s1.CallSync("echo", []byte(w1))
		g2, err2 := s2.CallSync("echo", []byte(w2))
		if err1 != nil || err2 != nil {
			t.Fatalf("stream calls failed: %v %v", err1, err2)
		}
		if string(g1) != w1 || string(g2) != w2 {
			t.Fatalf("cross-wired stream replies: %q %q", g1, g2)
		}
	}
}

// TestMuxNoHeadOfLineBlocking is the tentpole fairness property: a
// stream that floods the connection's worker pool with slow calls must
// not starve a sibling stream's quick call. The dispatcher schedules
// queued streams round-robin, so the quick call waits for at most a
// handful of slow-handler turnarounds, not the flooded stream's whole
// backlog.
func TestMuxNoHeadOfLineBlocking(t *testing.T) {
	const slowDelay = 3 * time.Millisecond
	srv := NewServer()
	srv.workers = 2
	srv.Register("slow", func(p []byte) ([]byte, error) {
		time.Sleep(slowDelay)
		return p, nil
	})
	srv.Register("quick", func(p []byte) ([]byte, error) { return p, nil })
	cc, sc := Pair()
	srv.ServeConn(sc)
	c := NewClient(cc, 64)
	defer c.Close()
	defer srv.Close()

	flood := c.Stream(32)
	quick := c.Stream(2)

	// Sustained flood: 8 goroutines keep slow calls pouring into the
	// flood stream for the whole test (sheds are re-offered), so its
	// queue is never empty. With the old single shared FIFO this
	// saturates the pool's queue and blocks the read loop, making the
	// quick stream wait out the entire flood.
	stopFlood := make(chan struct{})
	var floodWG sync.WaitGroup
	for i := 0; i < 8; i++ {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			for {
				select {
				case <-stopFlood:
					return
				default:
				}
				flood.CallSync("slow", nil)
			}
		}()
	}
	time.Sleep(2 * slowDelay) // let the flood stream's queue build

	// Round-robin bound: each quick call queues behind at most the
	// currently-running handlers plus one round-robin turn, not the
	// flood's backlog. Allow generous CI slack (4 slow turnarounds).
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := quick.CallSync("quick", nil); err != nil {
			t.Fatalf("quick call %d failed under sibling flood: %v", i, err)
		}
		if elapsed, limit := time.Since(start), 4*slowDelay; elapsed > limit {
			t.Fatalf("quick call %d took %v under sibling flood (HoL blocking); want < %v", i, elapsed, limit)
		}
	}
	close(stopFlood)
	floodWG.Wait()
}

// TestMuxPerStreamDeadline pins deadline propagation per stream: an
// expired request on one stream is refused with the typed
// deadline error, while sibling streams on the same connection keep
// working — no teardown, no stall.
func TestMuxPerStreamDeadline(t *testing.T) {
	srv := NewServer()
	srv.workers = 1
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.Register("hold", func(p []byte) ([]byte, error) {
		entered <- struct{}{}
		<-block
		return p, nil
	})
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	cc, sc := Pair()
	srv.ServeConn(sc)
	c := NewClient(cc, 16)
	defer c.Close()
	defer srv.Close()

	victim := c.Stream(4)
	sibling := c.Stream(4)

	// Occupy the single worker so the deadline call queues and expires
	// in the queue rather than being answered before its deadline.
	holdDone := make(chan error, 1)
	go func() {
		_, err := victim.CallSync("hold", nil)
		holdDone <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := victim.Call(ctx, "echo", nil)
	if err == nil {
		t.Fatal("expired-deadline call succeeded")
	}
	if !IsDeadlineExceeded(err) {
		t.Fatalf("expired call returned untyped error: %v", err)
	}

	// The sibling stream (and the shared connection) must be unharmed.
	close(block)
	<-holdDone
	got, err := sibling.CallSync("echo", []byte("alive"))
	if err != nil || string(got) != "alive" {
		t.Fatalf("sibling stream broken after victim's deadline expiry: %q %v", got, err)
	}
	if !c.Healthy() {
		t.Fatal("connection torn down by a per-stream deadline expiry")
	}
}

// TestMuxStreamOverflowSheds pins the no-blocking contract for every
// stream of a connection, its default stream 0 included: when one
// stream's queue exceeds the worker bound, the dispatcher sheds with
// the typed ShedError instead of blocking the shared read loop, and the
// excess never executes out of order or stalls siblings.
func TestMuxStreamOverflowSheds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flood func(c *Client) Transport
	}{
		{"mux-stream", func(c *Client) Transport { return c.Stream(32) }},
		{"default-stream", func(c *Client) Transport { return c }},
	} {
		t.Run(tc.name, func(t *testing.T) { testStreamOverflowSheds(t, tc.flood) })
	}
}

func testStreamOverflowSheds(t *testing.T, flood func(c *Client) Transport) {
	srv := NewServer()
	srv.workers = 2
	release := make(chan struct{})
	srv.Register("gate", func(p []byte) ([]byte, error) {
		<-release
		return p, nil
	})
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	cc, sc := Pair()
	srv.ServeConn(sc)
	c := NewClient(cc, 32)
	defer c.Close()
	defer srv.Close()

	// One stream with far more in-flight calls than workers+queue:
	// 2 run, 2 queue, the rest must shed.
	s := flood(c)
	const calls = 24
	results := make(chan error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.CallSync("gate", nil)
			results <- err
		}()
	}

	// Wait for sheds to come back while the gate is still closed: shed
	// responses bypass the stuck workers by design.
	deadline := time.After(10 * time.Second)
	var shed int
	for shed == 0 {
		select {
		case err := <-results:
			if !IsShed(err) {
				t.Fatalf("overflow produced non-shed result while gated: %v", err)
			}
			shed++
		case <-deadline:
			t.Fatal("stream overflow never shed; the read loop may be blocked")
		}
	}

	// A sibling stream must still get service (the read loop is alive).
	sib := c.Stream(2)
	sibCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { time.Sleep(10 * time.Millisecond); close(release) }()
	if _, err := sib.Call(sibCtx, "echo", nil); err != nil {
		t.Fatalf("sibling starved during sibling overflow: %v", err)
	}

	wg.Wait()
	close(results)
	okCount := 0
	for err := range results {
		switch {
		case err == nil:
			okCount++
		case IsShed(err):
			shed++
		default:
			t.Fatalf("unexpected overflow result: %v", err)
		}
	}
	if okCount == 0 || shed == 0 {
		t.Fatalf("want a mix of served and shed calls, got ok=%d shed=%d", okCount, shed)
	}
	if okCount+shed != calls {
		t.Fatalf("lost calls: ok=%d shed=%d of %d", okCount, shed, calls)
	}
}

// TestMuxConcurrentStreams hammers many streams concurrently under the
// race detector: replies must route to the right stream and call.
func TestMuxConcurrentStreams(t *testing.T) {
	_, c := muxPair(t, 8, 256)
	const (
		streams = 8
		calls   = 100
	)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for si := 0; si < streams; si++ {
		s := c.Stream(8)
		wg.Add(1)
		go func(s *Stream, si int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := fmt.Sprintf("s%d-c%d", si, i)
				got, err := s.CallSync("echo", []byte(want))
				if err != nil || string(got) != want {
					failed.Add(1)
					return
				}
			}
		}(s, si)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d streams failed", failed.Load())
	}
}

// TestMuxTeardownFailsAllStreams pins that closing the shared
// connection fails in-flight calls on every stream with ErrClosed —
// multiplexing must not strand sibling streams' callers.
func TestMuxTeardownFailsAllStreams(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	defer close(block)
	srv.Register("hold", func(p []byte) ([]byte, error) { <-block; return p, nil })
	cc, sc := Pair()
	srv.ServeConn(sc)
	defer srv.Close()
	c := NewClient(cc, 16)

	const streams = 4
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		s := c.Stream(2)
		go func() {
			_, err := s.CallSync("hold", nil)
			errs <- err
		}()
	}
	time.Sleep(5 * time.Millisecond) // let the calls get in flight
	c.Close()
	for i := 0; i < streams; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("stream call after teardown: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a stream's caller was stranded by connection teardown")
		}
	}
}

// Regression: Stream.Close used to be a no-op — calls on a "closed"
// stream succeeded and Healthy stayed true, contradicting Transport's
// contract. Closing one stream must not touch the shared connection or
// its siblings.
func TestStreamCloseLeavesConnAndSiblingsUp(t *testing.T) {
	_, c := muxPair(t, 0, 4)
	victim, sibling := c.Stream(2), c.Stream(2)
	if _, err := victim.CallSync("echo", nil); err != nil {
		t.Fatal(err)
	}
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.CallSync("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on a closed stream = %v, want ErrClosed", err)
	}
	if _, err := victim.Call(context.Background(), "echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call on a closed stream = %v, want ErrClosed", err)
	}
	if victim.Healthy() {
		t.Fatal("closed stream reports healthy")
	}
	if !c.Healthy() || !sibling.Healthy() {
		t.Fatal("closing one stream took the shared connection or a sibling down")
	}
	if got, err := sibling.CallSync("echo", []byte("alive")); err != nil || string(got) != "alive" {
		t.Fatalf("sibling after close: %q, %v", got, err)
	}
	if got, err := c.CallSync("echo", []byte("s0")); err != nil || string(got) != "s0" {
		t.Fatalf("stream 0 after close: %q, %v", got, err)
	}
}
