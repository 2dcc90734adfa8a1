package rpc

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// errConn is a net.Conn whose Writes can be gated and then made to
// fail: the first Write blocks on gate, and once failAfter writes have
// happened every Write returns werr. Reads block until Close.
type errConn struct {
	mu        sync.Mutex
	writes    int
	gate      chan struct{} // first write blocks here (nil: no gate)
	gated     bool
	failAfter int // fail writes numbered > failAfter (0: fail all)
	werr      error

	closeOnce sync.Once
	closed    chan struct{}
}

func newErrConn(gate chan struct{}, failAfter int, werr error) *errConn {
	return &errConn{gate: gate, failAfter: failAfter, werr: werr, closed: make(chan struct{})}
}

func (c *errConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.gate != nil && !c.gated {
		c.gated = true
		gate := c.gate
		c.mu.Unlock()
		<-gate
		c.mu.Lock()
	}
	c.writes++
	n := c.writes
	c.mu.Unlock()
	if n > c.failAfter {
		return 0, c.werr
	}
	return len(p), nil
}

func (c *errConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *errConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}
func (c *errConn) LocalAddr() net.Addr              { return nil }
func (c *errConn) RemoteAddr() net.Addr             { return nil }
func (c *errConn) SetDeadline(time.Time) error      { return nil }
func (c *errConn) SetReadDeadline(time.Time) error  { return nil }
func (c *errConn) SetWriteDeadline(time.Time) error { return nil }
func (c *errConn) entered() bool                    { c.mu.Lock(); defer c.mu.Unlock(); return c.gated }
func (c *errConn) wroteAtLeast(n int) bool          { c.mu.Lock(); defer c.mu.Unlock(); return c.writes >= n }

// TestWriterTeardownFailsQueuedCallsWithRootCause is the connWriter
// teardown regression test: frames queued behind an in-flight write
// whose batch then fails mid-drain must fail their pending Calls
// promptly, carrying the root-cause write error — not strand them
// until a ctx deadline, and not a bare "connection closed".
func TestWriterTeardownFailsQueuedCallsWithRootCause(t *testing.T) {
	rootCause := errors.New("simulated NIC fire")
	gate := make(chan struct{})
	conn := newErrConn(gate, 1, rootCause) // write 1 succeeds (after gate), rest fail
	c := NewClient(conn, 16)
	defer c.Close()

	call := func(done chan<- error) {
		_, err := c.CallSync("echo", []byte("q"))
		done <- err
	}

	// Call 1's frame is taken by the flusher, which blocks inside Write.
	firstDone := make(chan error, 1)
	go call(firstDone)
	deadline := time.Now().Add(5 * time.Second)
	for !conn.entered() {
		if time.Now().After(deadline) {
			t.Fatal("first write never reached the conn")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Calls 2..5 queue behind the in-flight write; their batch's write
	// will fail.
	const queuedCalls = 4
	queued := make([]chan error, queuedCalls)
	for i := range queued {
		queued[i] = make(chan error, 1)
		go call(queued[i])
	}
	for {
		c.w.mu.Lock()
		n := len(c.w.queue)
		c.w.mu.Unlock()
		if n == queuedCalls {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls queued behind the blocked write", n, queuedCalls)
		}
		time.Sleep(100 * time.Microsecond)
	}

	close(gate) // write 1 completes; the queued batch then fails

	// The first call's frame hit the wire before the failure; with the
	// conn torn down it fails with a close error (no reply can arrive).
	select {
	case err := <-firstDone:
		if err == nil {
			t.Fatal("call on dead conn succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first call stranded after teardown")
	}

	// The queued-but-unflushed calls must fail promptly AND carry the
	// root cause.
	for i, done := range queued {
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("queued call %d succeeded although its frame never hit the wire", i)
			}
			if !strings.Contains(err.Error(), rootCause.Error()) {
				t.Fatalf("queued call %d lost the root cause: %v", i, err)
			}
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("queued call %d error is not a close error: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("queued call %d stranded: teardown did not fail pending calls", i)
		}
	}

	// New calls on the dead client fail immediately with the same cause.
	if _, err := c.CallSync("echo", nil); err == nil || !strings.Contains(err.Error(), rootCause.Error()) {
		t.Fatalf("post-teardown call lost the root cause: %v", err)
	}
}

// TestWriterTeardownImmediateFailure: when the very first write fails
// (no gate, no queue), the waiting caller fails with the root cause.
func TestWriterTeardownImmediateFailure(t *testing.T) {
	rootCause := errors.New("broken pipe on first write")
	conn := newErrConn(nil, 0, rootCause)
	c := NewClient(conn, 4)
	defer c.Close()

	_, err := c.CallSync("echo", []byte("x"))
	if err == nil {
		t.Fatal("call over failing conn succeeded")
	}
	if !strings.Contains(err.Error(), rootCause.Error()) {
		t.Fatalf("first-write failure lost the root cause: %v", err)
	}
}

// TestPutBufSizeClasses pins the pool-hygiene fix: buffers are filed
// by size class, so the small-frame hot path can never be handed a
// megabyte buffer that a bulk burst left behind, and anything above
// maxPooledBuf is dropped entirely.
func TestPutBufSizeClasses(t *testing.T) {
	if got := classFor(64); got != 0 {
		t.Fatalf("classFor(64) = %d, want 0", got)
	}
	if got := classFor(bufClasses[0] + 1); got != 1 {
		t.Fatalf("classFor(%d) = %d, want 1", bufClasses[0]+1, got)
	}
	if got := classFor(maxPooledBuf); got != len(bufClasses)-1 {
		t.Fatalf("classFor(maxPooledBuf) = %d, want %d", got, len(bufClasses)-1)
	}
	if got := classFor(maxPooledBuf + 1); got != -1 {
		t.Fatalf("classFor(maxPooledBuf+1) = %d, want -1 (unpooled)", got)
	}

	// Flood the pool with 1 MiB-capacity buffers, then draw for small
	// frames: every returned buffer must come from the smallest class —
	// cap below the next class bound — proving big buffers no longer
	// sit under the small-frame path.
	for i := 0; i < 64; i++ {
		big := make([]byte, 0, maxPooledBuf)
		putBuf(&big)
	}
	for i := 0; i < 64; i++ {
		b := getBufFor(64)
		if cap(*b) >= bufClasses[1] {
			t.Fatalf("small-frame get returned a %d-cap buffer (class >= 1): big buffers pin the hot path", cap(*b))
		}
	}

	// Oversized buffers are never pooled.
	huge := make([]byte, 0, maxPooledBuf*2)
	putBuf(&huge) // must be dropped, not filed
	b := getBufFor(maxPooledBuf)
	if cap(*b) > maxPooledBuf {
		t.Fatalf("pool returned an over-cap buffer (%d > %d)", cap(*b), maxPooledBuf)
	}
}

// TestSmallFrameAllocCeiling is the alloc-ceiling regression: after a
// burst of bulk frames, encoding small frames must not allocate per
// call (the size-classed pool keeps the small class hot regardless of
// what the bulk path did).
func TestSmallFrameAllocCeiling(t *testing.T) {
	// Bulk burst: 1 MiB frames cycle through the pool's largest class.
	bulk := make([]byte, 1<<20)
	for i := 0; i < 8; i++ {
		buf, err := encodeFrame(kindRequest, uint64(i), "bulk", bulk)
		if err != nil {
			t.Fatal(err)
		}
		putBuf(buf)
	}
	small := make([]byte, 64)
	allocs := testing.AllocsPerRun(200, func() {
		buf, err := encodeFrame(kindRequest, 1, "echo", small)
		if err != nil {
			t.Fatal(err)
		}
		putBuf(buf)
	})
	// One steady-state allocation budget: the pooled buffer round-trips
	// with zero allocs; allow a little slack for pool internals.
	if allocs > 1 {
		t.Fatalf("small-frame encode allocates %.1f/op after bulk burst; want <= 1", allocs)
	}
}

// TestLentBuffersNeverPooled pins the lending contract on the writer:
// a payload lent via enqueueVec must never be handed back by the frame
// pool — the writer only reads it, and the pool only ever recycles
// writer-owned header buffers.
func TestLentBuffersNeverPooled(t *testing.T) {
	sink := &sinkConn{}
	w := newConnWriter(sink)
	defer w.close()

	lent := make([]byte, lendMin)
	for i := range lent {
		lent[i] = byte(i)
	}
	hdr, err := encode(kindResponse, 7, "m", nil, lent, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.enqueueVec(hdr, lent); err != nil {
		t.Fatal(err)
	}

	// Drain settled: the full frame (header || payload) must be on the
	// conn, intact.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sink.mu.Lock()
		n := sink.buf.Len()
		sink.mu.Unlock()
		if n >= frameHdrLen+1+len(lent) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lent frame never fully written")
		}
		time.Sleep(100 * time.Microsecond)
	}
	sink.mu.Lock()
	f, err := readFrame(bytes.NewReader(sink.buf.Bytes()))
	sink.mu.Unlock()
	if err != nil {
		t.Fatalf("gathered frame corrupt: %v", err)
	}
	if !bytes.Equal(f.payload, lent) {
		t.Fatal("lent payload corrupted in gather write")
	}

	// The pool must never surface the lent backing array.
	for i := 0; i < 256; i++ {
		b := getBufFor(lendMin)
		grown := (*b)[:1]
		if &grown[0] == &lent[0] {
			t.Fatal("pool returned the lent payload's backing array")
		}
		putBuf(b)
	}
}

// TestLendingRoundTrip pins end-to-end lending over a live server: a
// large request payload and a large response both travel the lent
// path (client request lend, server response lend) and arrive intact.
func TestLendingRoundTrip(t *testing.T) {
	srv := NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	cc, sc := Pair()
	srv.ServeConn(sc)
	defer srv.Close()
	c := NewClient(cc, 4)
	defer c.Close()

	payload := make([]byte, 256<<10) // well above lendMin
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got, err := c.CallSync("echo", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("lent payload corrupted over live round trip")
	}
}
