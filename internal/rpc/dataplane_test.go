package rpc

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
)

// TestResponseWriteFailureDoesNotWedgeServer injects a write failure on
// the server side of a connection (via chaos) while a response is being
// written, and asserts the failure tears the connection down instead of
// wedging the serve loop: the caller gets an error, the server keeps
// serving fresh connections, and Close returns promptly.
func TestResponseWriteFailureDoesNotWedgeServer(t *testing.T) {
	srv := NewServer()
	inj := chaos.NewInjector(1, chaos.Config{})
	srv.Register("flip", func(p []byte) ([]byte, error) {
		// Arm the injector from inside the handler so the request frame
		// gets through cleanly and only the response write fails.
		inj.SetConfig(chaos.Config{DropProb: 1})
		return p, nil
	})
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })

	cc, sc := Pair()
	srv.ServeConn(inj.WrapConn(sc))
	c := NewClient(cc, 4)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, "flip", []byte("x")); err == nil {
		t.Fatal("call succeeded although the response write was dropped")
	} else if ctx.Err() != nil {
		t.Fatalf("call hung until the timeout instead of failing fast: %v", err)
	}

	// The server must still accept and serve a fresh connection.
	cc2, sc2 := Pair()
	srv.ServeConn(sc2)
	c2 := NewClient(cc2, 4)
	defer c2.Close()
	if _, err := c2.CallSync("echo", []byte("y")); err != nil {
		t.Fatalf("second connection broken after write failure on first: %v", err)
	}

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close wedged after response-write failure")
	}
}

// TestWorkerPoolBoundsConcurrency asserts the worker bound caps how many
// handlers run at once: concurrent slow calls against a 4-worker server
// must never observe more than 4 handlers in flight. The callers stay
// within what the pool runs plus what one stream may queue (2 ×
// workers), so every call executes and none is shed.
func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	const workers, callers = 4, 6
	srv := NewServer()
	srv.workers = workers
	var inflight, peak atomic.Int64
	srv.Register("slow", func(p []byte) ([]byte, error) {
		n := inflight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return p, nil
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	defer srv.Close()
	c := NewClient(cc, callers)
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4*callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.CallSync("slow", nil); err != nil {
				t.Errorf("slow call: %v", err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrent handlers = %d, want <= %d", p, workers)
	}
}

// sinkConn is a net.Conn that records writes; its first Write can be
// gated so frames pile up behind an in-flight syscall.
type sinkConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
	gate   chan struct{} // nil: never block
	gated  bool          // first write already consumed the gate
}

func (s *sinkConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	if s.gate != nil && !s.gated {
		s.gated = true
		gate := s.gate
		s.mu.Unlock()
		<-gate
		s.mu.Lock()
	}
	s.writes++
	n, err := s.buf.Write(p)
	s.mu.Unlock()
	return n, err
}

func (s *sinkConn) Read([]byte) (int, error)           { return 0, io.EOF }
func (s *sinkConn) Close() error                       { return nil }
func (s *sinkConn) LocalAddr() net.Addr                { return nil }
func (s *sinkConn) RemoteAddr() net.Addr               { return nil }
func (s *sinkConn) SetDeadline(time.Time) error        { return nil }
func (s *sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (s *sinkConn) SetWriteDeadline(t time.Time) error { return nil }

// TestConnWriterCoalescesAndPreservesOrder blocks the first write so a
// burst of frames queues behind it, then verifies (a) the queued frames
// were coalesced into far fewer syscalls than frames, and (b) the byte
// stream decodes into every frame, whole and in enqueue order.
func TestConnWriterCoalescesAndPreservesOrder(t *testing.T) {
	const frames = 64
	sink := &sinkConn{gate: make(chan struct{})}
	w := newConnWriter(sink)
	defer w.close()

	// The flusher takes frame 0 and blocks in Write.
	buf, err := encodeFrame(kindResponse, 0, "m", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.enqueue(buf); err != nil {
		t.Fatal(err)
	}

	// Wait until the flusher is actually inside Write.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sink.mu.Lock()
		entered := sink.gated
		sink.mu.Unlock()
		if entered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first write never reached the conn")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// These must all queue behind the in-flight write.
	for i := uint64(1); i < frames; i++ {
		pb, err := encodeFrame(kindResponse, i, "m", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.enqueue(pb); err != nil {
			t.Fatal(err)
		}
	}

	close(sink.gate)

	// Wait for the flusher to drain everything.
	var out []byte
	for {
		sink.mu.Lock()
		out = append(out[:0], sink.buf.Bytes()...)
		writes := sink.writes
		sink.mu.Unlock()
		if countFrames(t, out) == frames {
			if writes >= frames/2 {
				t.Fatalf("%d frames took %d writes; expected coalescing into far fewer", frames, writes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained only %d/%d frames", countFrames(t, out), frames)
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Decode and verify order and integrity.
	r := bytes.NewReader(out)
	for i := uint64(0); i < frames; i++ {
		f, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.callID != i {
			t.Fatalf("frame %d out of order: callID %d", i, f.callID)
		}
		if len(f.payload) != 1 || f.payload[0] != byte(i) {
			t.Fatalf("frame %d payload corrupted: %v", i, f.payload)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("trailing bytes after last frame: %v", err)
	}
}

func countFrames(t *testing.T, stream []byte) int {
	t.Helper()
	n := 0
	r := bytes.NewReader(stream)
	for {
		if _, err := readFrame(r); err != nil {
			return n
		}
		n++
	}
}
