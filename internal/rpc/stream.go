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

// start sends one request on the stream's id, drawing from its pool.
func (s *Stream) start(ctx context.Context, method string, payload []byte) *pendingCall {
	call := getCall(method)
	if s.closed.Load() {
		call.fail(ErrClosed)
	} else {
		s.c.start(ctx, call, payload, s.sem, s.id)
	}
	return call
}

// Call performs a blocking call on this stream bounded by ctx: if the
// context fires first the call returns ctx.Err(), the caller-pool slot
// is released, and a cancel frame asks the server to stop the handler.
// Payloads of lendMin bytes or more are lent to the connection writer
// (gathered into the socket by writev with no intermediate copy), so
// the payload must not be mutated until the call returns.
func (s *Stream) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	call := s.start(ctx, method, payload)
	select {
	case <-call.done:
	case <-ctx.Done():
		s.c.abort(call, ctx.Err())
		// If the reply raced the cancellation and won, this returns it.
		<-call.done
	}
	reply, err := call.reply, call.err
	putCall(call)
	return reply, err
}

// CallSync performs a blocking call on this stream with no deadline.
func (s *Stream) CallSync(method string, payload []byte) ([]byte, error) {
	call := s.start(context.Background(), method, payload)
	<-call.done
	reply, err := call.reply, call.err
	putCall(call)
	return reply, err
}

// Healthy reports whether the stream is open and the shared connection
// alive.
func (s *Stream) Healthy() bool { return !s.closed.Load() && s.c.Healthy() }

// Close releases the stream: later calls on it return ErrClosed and it
// reports unhealthy. The shared connection and sibling streams stay
// up — close the Client to tear the transport down; calls already in
// flight complete, and stream ids are not reused.
func (s *Stream) Close() error {
	s.closed.Store(true)
	return nil
}
