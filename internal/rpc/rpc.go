// Package rpc is a from-scratch framed binary RPC framework standing in
// for the Apache Thrift APIs the HiveMind compiler synthesizes for
// edge<->cloud communication (§4.1), with the same structure as the
// networking API of §4.5: an RPCServer with registered procedures and an
// RPCClient that "encapsulates a pool of RPC caller threads that
// concurrently call remote procedures registered in the RPCServer".
//
// The wire format is a simple length-prefixed frame:
//
//	uint32 frameLen | uint8 kind | uint64 callID | uint16 methodLen |
//	method bytes    | body bytes
//
// A request's body is an 8-byte absolute deadline (UnixNano, 0: none)
// followed by the payload; every other kind's body is the payload.
// Payloads are opaque []byte so the generated cross-task APIs can choose
// their own encoding. Transports are anything that yields a net.Conn:
// TCP between machines, net.Pipe in-process.
//
// The data plane is built for throughput, the software stand-in for the
// paper's FPGA RPC offload (§5.3): frame buffers come from a sync.Pool
// and header+method+payload are gathered into a single write; each
// connection owns a buffered, coalescing writer (writer.go) whose one
// flusher goroutine gathers every frame queued in a scheduling round
// into one syscall; and each server connection runs handlers on a
// bounded worker pool (worker.go) instead of a goroutine per request,
// sized like the client's caller pool, shedding a stream's overflow
// rather than blocking its read loop.
//
// Beyond request/response the protocol carries a cancel frame that
// propagates client-side context cancellation into running server
// handlers; it is serviced out-of-band of the worker pool, directly
// from the read loop, so cancellation never queues behind slow
// handlers. On top of the transports (transport.go), FailoverClient
// (failover.go) layers deadlines, bounded retries, automatic rebuild
// and leader-following.
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Frame kinds. Servers skip any other kind.
const (
	// kindRequest carries the caller's absolute deadline ahead of its
	// payload: wire-level deadline propagation. Servers drop a request
	// whose deadline has already passed *before* executing it (see
	// dispatcher.run), so an overloaded fleet stops burning capacity on
	// responses nobody is waiting for.
	kindRequest  = 1
	kindResponse = 2
	kindError    = 3
	// kindCancel tells the server to cancel the context of the handler
	// running callID (sent when the client's ctx fires first).
	kindCancel = 4
)

// maxFrame bounds a frame to 64 MiB: larger than any sensor batch the
// swarm ships, small enough to stop a corrupt length prefix from
// exhausting memory.
const maxFrame = 64 << 20

// Call ids carry the logical stream in their top 16 bits so one
// connection can multiplex many streams; the server echoes the id
// back. Stream 0 is the connection's default stream (the Client's own
// calls); Client.Stream allocates the rest.
const (
	streamShift   = 48
	streamSeqMask = (uint64(1) << streamShift) - 1
)

// streamOf extracts the logical stream a call id belongs to.
func streamOf(callID uint64) uint16 { return uint16(callID >> streamShift) }

// Common errors.
var (
	ErrClosed         = errors.New("rpc: connection closed")
	ErrMethodNotFound = errors.New("rpc: method not found")
)

// ServerError is an application-level error returned by a remote
// handler, as opposed to a transport failure. Retry policies treat the
// two differently: a ServerError proves the request executed, so only
// transport failures are safe to retry for idempotent methods.
type ServerError string

// Error implements error.
func (e ServerError) Error() string { return string(e) }

// Handler processes one request payload and returns a response payload.
type Handler func(payload []byte) ([]byte, error)

// HandlerCtx is a context-aware handler: ctx is cancelled when the
// client sends a cancel frame for this call or the connection drops, so
// long-running handlers can stop wasted work (server-side cancellation
// propagation).
type HandlerCtx func(ctx context.Context, payload []byte) ([]byte, error)

// CallObserver is the client-side interceptor hook: FailoverClient
// invokes it once per attempt with the method and payload, and it
// returns a completion callback invoked with the attempt's error (nil
// on success), or nil to skip observing this attempt. The pair brackets
// the full RPC hop on whatever transport carries it — caller-pool wait,
// write, server turnaround, reply — so observability layers can time
// hops without touching the wire format.
type CallObserver func(method string, payload []byte) func(err error)

// ServerInterceptor wraps every dispatched handler: it receives the
// request and the resolved handler (next) and must call it (or not) to
// produce the response. Interceptors time or trace the server side of
// an RPC hop; method is a stable copy, safe to retain.
type ServerInterceptor func(ctx context.Context, method string, payload []byte, next HandlerCtx) ([]byte, error)

// rframe is one decoded incoming frame. method and payload alias the
// frame's body buffer: method is only valid until the receiver moves
// on, payload escapes as the handler argument / call reply.
type rframe struct {
	kind    byte
	callID  uint64
	method  []byte
	payload []byte
}

func readFrame(r io.Reader) (rframe, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return rframe{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 11 || n > maxFrame {
		return rframe{}, fmt.Errorf("rpc: invalid frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return rframe{}, err
	}
	f := rframe{kind: body[0], callID: binary.BigEndian.Uint64(body[1:9])}
	mlen := int(binary.BigEndian.Uint16(body[9:11]))
	if 11+mlen > int(n) {
		return rframe{}, errors.New("rpc: method length exceeds frame")
	}
	f.method = body[11 : 11+mlen]
	f.payload = body[11+mlen:]
	return f, nil
}

// handlerEntry is a registered procedure. plain marks handlers that
// ignore their context (registered via Register): the server skips
// per-request cancellation tracking for them — a cancel would have no
// observable effect anyway — saving a context allocation and two map
// operations per request on the hot path.
type handlerEntry struct {
	fn    HandlerCtx
	plain bool
}

// Server dispatches registered procedures over accepted connections.
type Server struct {
	mu          sync.RWMutex
	handlers    map[string]handlerEntry
	interceptor ServerInterceptor

	lnMu      sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	rings     []*Ring
	closed    bool
	workers   int // per-connection handler pool bound; 0 means defaultWorkers
	wg        sync.WaitGroup

	// droppedExpired counts requests whose propagated deadline had
	// already passed when a worker was about to execute them: dropped
	// with a DeadlineExceededError instead of executed.
	droppedExpired atomic.Uint64
}

// DroppedExpired reports how many requests were dropped before
// execution because their wire-propagated deadline had already expired
// (the overload e2e suite asserts expired work is never executed).
func (s *Server) DroppedExpired() uint64 { return s.droppedExpired.Load() }

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{handlers: make(map[string]handlerEntry), conns: make(map[net.Conn]struct{})}
}

// SetInterceptor installs a server-side interceptor wrapping every
// dispatched handler (nil removes it). It applies to requests read
// after the call; in-flight requests keep the handler they resolved.
func (s *Server) SetInterceptor(si ServerInterceptor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interceptor = si
}

// Register binds a handler to a method name. Re-registering replaces the
// handler.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = handlerEntry{
		fn:    func(_ context.Context, payload []byte) ([]byte, error) { return h(payload) },
		plain: true,
	}
}

// RegisterCtx binds a context-aware handler: its ctx is cancelled when
// the calling client cancels the request or its connection drops.
func (s *Server) RegisterCtx(method string, h HandlerCtx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = handlerEntry{fn: h}
}

// handlerFor resolves a method to its handler entry and the current
// interceptor — the lookup the in-process ring transport shares with
// the framed read loop.
func (s *Server) handlerFor(method string) (handlerEntry, ServerInterceptor, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.handlers[method]
	return h, s.interceptor, ok
}

// attachRing registers an in-process ring transport with the server's
// lifecycle: Close tears it down with the framed connections.
func (s *Server) attachRing(r *Ring) error {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.rings = append(s.rings, r)
	return nil
}

// Serve accepts connections on ln until the listener or server is
// closed. It blocks; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.listeners = append(s.listeners, ln)
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.lnMu.Lock()
			closed := s.closed
			s.lnMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.ServeConn(conn)
	}
}

// ServeConn serves a single connection asynchronously (e.g. one end of a
// net.Pipe).
func (s *Server) ServeConn(conn net.Conn) {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	workers := s.workers
	s.wg.Add(1)
	s.lnMu.Unlock()
	go func() {
		defer s.wg.Done()
		w := newConnWriter(conn)
		d := newDispatcher(w, workers)
		d.dropped = &s.droppedExpired
		defer func() {
			s.lnMu.Lock()
			delete(s.conns, conn)
			s.lnMu.Unlock()
			// Cancel every in-flight handler on this conn so it
			// observes the disconnect, then stop the pool.
			d.abortAll()
			d.close()
			w.close()
			conn.Close()
		}()
		br := bufio.NewReaderSize(conn, readBufSize)
		for {
			f, err := readFrame(br)
			if err != nil {
				return
			}
			if f.kind == kindCancel {
				d.cancelCall(f.callID)
				continue
			}
			if f.kind != kindRequest {
				continue
			}
			if len(f.payload) < 8 {
				// Malformed like the frames readFrame rejects: tear the
				// connection down so every pending call fails at once.
				return
			}
			deadlineNS := int64(binary.BigEndian.Uint64(f.payload[:8]))
			f.payload = f.payload[8:]
			s.mu.RLock()
			h, ok := s.handlers[string(f.method)] // alloc-free []byte map key
			icept := s.interceptor
			s.mu.RUnlock()
			t := task{h: h.fn, callID: f.callID, stream: streamOf(f.callID), payload: f.payload, deadlineNS: deadlineNS}
			if !ok {
				t.h = nil
			} else if icept != nil {
				// f.method aliases the read buffer; the interceptor runs
				// async on the worker pool, so it gets a stable copy.
				method := string(f.method)
				inner := h.fn
				t.h = func(ctx context.Context, payload []byte) ([]byte, error) {
					return icept(ctx, method, payload, inner)
				}
			}
			if ok && !h.plain {
				// Context-aware handler: track it so cancel frames and
				// teardown reach it. Plain handlers ignore their ctx, so
				// the tracking (and its allocations) is skipped. The wire
				// deadline (if any) surfaces through ctx.Deadline so
				// handlers and everything they derive inherit it.
				t.ctx = &reqCtx{}
				if deadlineNS != 0 {
					t.ctx.deadline = time.Unix(0, deadlineNS)
				}
				d.register(f.callID, t.ctx)
			}
			d.submit(t)
		}
	}()
}

// Close stops the server: listeners close, active connections drop, and
// Close waits for connection goroutines to drain.
func (s *Server) Close() {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		return
	}
	s.closed = true
	for _, ln := range s.listeners {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	rings := s.rings
	s.rings = nil
	s.lnMu.Unlock()
	for _, r := range rings {
		r.Close()
	}
	s.wg.Wait()
}

// pendingCall is one in-flight RPC. Records are pooled: done receives
// exactly once per use and the caller drains it before putCall, so a
// recycled record's channel is empty. Once a finisher has claimed fin
// it alone writes reply/err, and the caller reads them after done.
type pendingCall struct {
	method  string
	reply   []byte
	err     error
	done    chan struct{}
	replyTo uint64
	fin     atomic.Bool   // completion claimed
	sem     chan struct{} // caller-pool slot to return; nil if none held
}

var callPool = sync.Pool{New: func() any { return &pendingCall{done: make(chan struct{}, 1)} }}

func getCall(method string) *pendingCall {
	call := callPool.Get().(*pendingCall)
	call.method = method
	return call
}

func putCall(call *pendingCall) {
	*call = pendingCall{done: call.done}
	callPool.Put(call)
}

// Client issues calls over one connection, multiplexing concurrent
// requests by call id. Its own Call/CallSync ride the connection's
// default stream (stream 0), whose caller pool of size callers bounds
// in-flight calls, mirroring the paper's caller-thread pool: the slot
// is held from send until the reply (or failure) arrives.
//
// One connection can carry many logical streams: Stream carves an
// independent caller pool out of the shared connection, and the server
// dispatches queued work round-robin across streams, so a saturated
// stream cannot head-of-line-block its siblings (see Stream). Stream 0
// is one of them: its overflow is shed like any other stream's.
type Client struct {
	conn   net.Conn
	w      *connWriter
	nextID atomic.Uint64

	// nextStream allocates logical stream ids for Stream; s0 is stream
	// 0, the Client's own default stream and caller pool.
	nextStream atomic.Uint32
	s0         Stream

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	closed  bool
	readErr error
}

// NewClient wraps an established connection with a caller pool of the
// given size (<=0 means 64).
func NewClient(conn net.Conn, callers int) *Client {
	if callers <= 0 {
		callers = 64
	}
	c := &Client{
		conn:    conn,
		w:       newConnWriter(conn),
		pending: make(map[uint64]*pendingCall),
	}
	c.s0 = Stream{c: c, sem: make(chan struct{}, callers)}
	// A failed batch write carries the root cause of the teardown:
	// queued-but-unflushed frames must fail their pending calls with
	// that error, not strand them until a read-side deadline.
	c.w.onErr = func(err error) { c.failAll(fmt.Errorf("rpc: write failed: %w", err)) }
	go c.readLoop()
	return c
}

// Dial connects to a server over TCP.
func Dial(addr string, callers int) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, callers), nil
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, readBufSize)
	for {
		f, err := readFrame(br)
		if err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		call := c.pending[f.callID]
		delete(c.pending, f.callID)
		c.mu.Unlock()
		if call == nil {
			continue
		}
		// The read loop is the call's exclusive finisher once it has
		// removed it from pending, so these field writes cannot race.
		switch f.kind {
		case kindResponse:
			call.reply = f.payload
		case kindError:
			call.err = ServerError(f.payload)
		default:
			call.err = fmt.Errorf("rpc: unexpected frame kind %d", f.kind)
		}
		call.finish()
	}
}

// closeError returns ErrClosed carrying the root cause of the
// connection teardown, so chaos-test failures are diagnosable instead
// of a bare "connection closed".
func closeError(cause error) error {
	if cause == nil || errors.Is(cause, ErrClosed) || errors.Is(cause, io.EOF) || errors.Is(cause, io.ErrClosedPipe) {
		return ErrClosed
	}
	return fmt.Errorf("%w: %v", ErrClosed, cause)
}

// failAll records err as the teardown's root cause (the first caller
// wins) before closing the writer, then fails every pending call.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	c.closed = true
	if c.readErr == nil {
		c.readErr = err
	}
	cause := closeError(c.readErr)
	pend := c.pending
	c.pending = make(map[uint64]*pendingCall)
	c.mu.Unlock()
	if c.w != nil { // nil in white-box tests that never dial
		c.w.close()
	}
	for _, call := range pend {
		call.fail(cause)
	}
}

// deliver returns the caller-pool slot and signals done. Only the
// finisher that claimed fin reaches it.
func (call *pendingCall) deliver() {
	if call.sem != nil {
		<-call.sem
	}
	call.done <- struct{}{}
}

// finish completes a call whose reply/err its exclusive finisher
// already set; exactly one deliver runs.
func (call *pendingCall) finish() {
	if call.fin.CompareAndSwap(false, true) {
		call.deliver()
	}
}

// fail completes a call with err unless it already completed. err is
// only written by the claim winner, so concurrent finishers cannot
// race on the field.
func (call *pendingCall) fail(err error) {
	if call.fin.CompareAndSwap(false, true) {
		call.err = err
		call.deliver()
	}
}

// Healthy reports whether the connection has not failed.
func (c *Client) Healthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed
}

// start registers and sends one request frame for call. It first
// reserves a slot in the caller pool sem (held until the call
// finishes). stream tags the call id with a logical stream so the
// server's dispatcher can schedule streams fairly. The frame goes to
// the connection's flusher, which coalesces concurrent callers' frames
// into one writev per scheduling round; a failed write surfaces
// through connection teardown.
func (c *Client) start(ctx context.Context, call *pendingCall, payload []byte, sem chan struct{}, stream uint16) {
	if ctx.Done() == nil {
		// Background context: plain send, no select machinery.
		sem <- struct{}{}
		call.sem = sem
	} else {
		select {
		case sem <- struct{}{}:
			call.sem = sem
		case <-ctx.Done():
			call.fail(ctx.Err())
			return
		}
	}
	c.mu.Lock()
	if c.closed {
		err := closeError(c.readErr)
		c.mu.Unlock()
		call.fail(err)
		return
	}
	id := uint64(stream)<<streamShift | c.nextID.Add(1)&streamSeqMask
	call.replyTo = id
	c.pending[id] = call
	c.mu.Unlock()

	var dlNS int64
	if dl, ok := ctx.Deadline(); ok {
		// Propagate the caller's absolute deadline on the wire so the
		// server can drop the request unexecuted once it expires.
		dlNS = dl.UnixNano()
	}
	// Zero-copy send for large payloads: encode only the header into a
	// pooled buffer and lend the caller's payload to the writer, which
	// gathers the two into the socket with writev. The payload must
	// stay unmutated until the call completes.
	var lent []byte
	if len(payload) >= lendMin {
		lent = payload
	}
	buf, err := encodeRequest(id, call.method, dlNS, payload, lent != nil)
	if err == nil {
		err = c.w.enqueueVec(buf, lent)
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		call.fail(err)
	}
}

// abort removes a call whose context fired before the reply and tells
// the server to cancel the handler (best effort). If the reply (or a
// connection teardown) already claimed the call, abort leaves its
// result alone — the imminent deliver supplies it.
func (c *Client) abort(call *pendingCall, err error) {
	c.mu.Lock()
	_, pendingStill := c.pending[call.replyTo]
	delete(c.pending, call.replyTo)
	closed := c.closed
	c.mu.Unlock()
	if !pendingStill {
		return
	}
	if !closed {
		if buf, encErr := encodeFrame(kindCancel, call.replyTo, "", nil); encErr == nil {
			c.w.enqueue(buf)
		}
	}
	call.fail(err)
}

// Call performs a blocking call on stream 0 bounded by ctx (see
// Stream.Call).
func (c *Client) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return c.s0.Call(ctx, method, payload)
}

// CallSync performs a blocking call on stream 0 with no deadline.
func (c *Client) CallSync(method string, payload []byte) ([]byte, error) {
	return c.s0.CallSync(method, payload)
}

// Close tears down the connection; outstanding calls fail with
// ErrClosed.
func (c *Client) Close() error {
	c.w.close()
	err := c.conn.Close()
	c.failAll(ErrClosed)
	return err
}

// Pair returns a connected in-process client/server conn pair, the
// "same container" fast path.
func Pair() (clientConn, serverConn net.Conn) {
	return net.Pipe()
}
