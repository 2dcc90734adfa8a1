package rpc

import (
	"context"
	"sync/atomic"
)

// maxStreams bounds the logical streams one connection can carry: the
// stream id rides in the top 16 bits of the call id.
const maxStreams = 1 << 16

// Stream is one logical stream multiplexed over a shared connection.
// Each stream has its own caller pool, so a stream saturated with slow
// calls only exhausts its own in-flight budget, and the server
// schedules queued work round-robin across the streams of a
// connection — together they remove the head-of-line interaction
// between one busy caller and everyone else sharing the transport
// (the per-call HOL blocking the paper's §4.5 flow provisioning
// eliminates in hardware).
//
// Streams share the connection's write coalescing and read loop, so a
// fleet of streams still costs one socket, one flusher and one
// reader. A Stream is safe for concurrent use by multiple goroutines.
type Stream struct {
	c      *Client
	id     uint16
	sem    chan struct{}
	closed atomic.Bool
	// owns marks a stream ConnEndpoint built on a private connection:
	// closing the stream closes that connection.
	owns bool
}

// Stream carves a new logical stream out of the connection with its
// own caller pool of the given size (<=0 means 8). It panics when the
// connection's 65535-stream budget is exhausted — a leak of streams,
// not a load condition.
func (c *Client) Stream(callers int) *Stream {
	if callers <= 0 {
		callers = 8
	}
	id := c.nextStream.Add(1)
	if id >= maxStreams {
		panic("rpc: stream ids exhausted on connection")
	}
	return &Stream{c: c, id: uint16(id), sem: make(chan struct{}, callers)}
}

// ID returns the stream's logical id on its connection.
func (s *Stream) ID() uint16 { return s.id }

// start sends one request on the stream's id, drawing from its pool.
func (s *Stream) start(ctx context.Context, call *Call, payload []byte) *Call {
	if s.closed.Load() {
		call.fail(ErrClosed)
		return call
	}
	return s.c.start(ctx, call, payload, s.sem, s.id)
}

// Call performs a blocking call on this stream bounded by ctx: if the
// context fires first the call returns ctx.Err(), the caller-pool slot
// is released, and a cancel frame asks the server to stop the handler.
func (s *Stream) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	done := getDone()
	call := s.start(ctx, getCall(method, done), payload)
	select {
	case <-done:
	case <-ctx.Done():
		s.c.abort(call, ctx.Err())
		// If the reply raced the cancellation and won, this returns it.
		<-done
	}
	reply, err := call.Reply, call.Err
	putDone(done)
	putCall(call)
	return reply, err
}

// CallSync performs a blocking call on this stream with no deadline.
func (s *Stream) CallSync(method string, payload []byte) ([]byte, error) {
	done := getDone()
	call := s.start(context.Background(), getCall(method, done), payload)
	<-done
	reply, err := call.Reply, call.Err
	putDone(done)
	putCall(call)
	return reply, err
}

// Go starts an asynchronous call on this stream. done may be nil, in
// which case a buffered channel is allocated; a caller-supplied done
// must have capacity >= 1 or Go panics, because completions are
// delivered with a non-blocking send and an unbuffered channel would
// silently drop every one of them. The returned Call is delivered on
// its Done channel when complete. Go blocks while the caller pool is
// full. The payload must not be mutated until the call completes: under
// load the write is asynchronous, and payloads of lendMin bytes or more
// are lent to the connection writer (gathered into the socket by writev
// with no intermediate copy) rather than copied into a frame buffer.
func (s *Stream) Go(method string, payload []byte, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	} else if cap(done) == 0 {
		panic("rpc: done channel is unbuffered")
	}
	return s.start(context.Background(), &Call{Method: method, Done: done}, payload)
}

// Healthy reports whether the stream is open and the shared connection
// alive.
func (s *Stream) Healthy() bool { return !s.closed.Load() && s.c.Healthy() }

// Close releases the stream: later calls on it return ErrClosed and it
// reports unhealthy. The shared connection and sibling streams stay
// up — close the Client to tear the transport down; calls already in
// flight complete, and stream ids are not reused. A stream that owns
// its connection (ConnEndpoint's) closes the connection too.
func (s *Stream) Close() error {
	if !s.closed.Swap(true) && s.owns {
		return s.c.Close()
	}
	return nil
}
