package rpc

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Ring is the in-process shared-memory fast path: a lock-free bounded
// MPMC ring (Vyukov layout — per-slot sequence numbers, CAS tickets)
// carrying request records between caller goroutines and a small pool
// of consumer goroutines that run the server's registered handlers
// directly. Co-located tiers — functions scheduled onto the same node,
// the paper's §4.4 shared-memory communication case — skip the entire
// framed path: no serialization, no syscalls, no read loop; a call is
// one enqueue, one handler run and one completion CAS, which is what
// makes sub-microsecond round trips possible where the framed
// in-process path (net.Pipe) pays several microseconds.
//
// Semantics are wire-parity with the framed transport so the hardened
// layers above cannot tell them apart: handler errors surface as
// ServerError (IsShed/IsDeadlineExceeded/NotLeader parsing works
// unchanged), unknown methods return ErrMethodNotFound's wire form,
// expired propagated deadlines are dropped unexecuted and counted in
// the server's DroppedExpired, and the server interceptor wraps every
// call. The caller's context is handed to the handler directly, so
// cancellation and deadlines propagate without cancel frames.
//
// A Ring is safe for any number of concurrent callers.
type Ring struct {
	srv  *Server
	mask uint64

	// enqPos/deqPos are the ring tickets; slots[i].seq tracks which
	// ticket may use the slot next (Vyukov's scheme).
	enqPos atomic.Uint64
	_      [56]byte // keep the hot counters on separate cache lines
	deqPos atomic.Uint64
	_      [56]byte
	slots  []ringSlot

	closed    atomic.Bool
	producers atomic.Int64 // callers inside enqueue; Close waits for 0
	stop      chan struct{}
	wg        sync.WaitGroup

	sleepers atomic.Int32 // parked consumers
	wake     chan struct{}

	// inline counts callers running their handler on their own
	// goroutine (the caller-runs fast path); bounded by consumers.
	inline    atomic.Int64
	consumers int
}

// ringSlot is one ring cell, padded to a cache line so neighbouring
// slots do not false-share under concurrent producers.
type ringSlot struct {
	seq atomic.Uint64
	req *ringReq
	_   [48]byte
}

// ringReq completion states: the caller and the consumer race the
// transitions with CAS, and whoever loses a claim knows exactly what
// the winner did.
const (
	reqPending   = 0 // caller spinning; consumer may finish with CAS(0->1)
	reqDone      = 1 // consumer finished; caller collects and frees
	reqParked    = 2 // caller parked on done; consumer CAS(2->1) then signals
	reqAbandoned = 3 // caller gave up (ctx fired); consumer frees
)

// ringReq is one in-flight ring call. Records are pooled; the
// completion state machine decides which side returns a record to the
// pool (the caller normally; the consumer when the caller abandoned).
type ringReq struct {
	method  string
	payload []byte
	ctx     context.Context
	// deadlineNS mirrors the deadline a framed request carries on the
	// wire: consumers drop the request unexecuted once it has passed.
	deadlineNS int64

	reply []byte
	err   error

	state atomic.Uint32
	done  chan struct{} // cap 1; signalled only on the 2->1 transition
}

var ringReqPool = sync.Pool{New: func() any {
	return &ringReq{done: make(chan struct{}, 1)}
}}

func getRingReq(ctx context.Context, method string, payload []byte, deadlineNS int64) *ringReq {
	rq := ringReqPool.Get().(*ringReq)
	rq.method, rq.payload, rq.ctx, rq.deadlineNS = method, payload, ctx, deadlineNS
	rq.reply, rq.err = nil, nil
	rq.state.Store(reqPending)
	return rq
}

func putRingReq(rq *ringReq) {
	rq.method, rq.payload, rq.ctx = "", nil, nil
	rq.reply, rq.err = nil, nil
	ringReqPool.Put(rq)
}

// RingOptions configures NewRing.
type RingOptions struct {
	// Slots is the ring capacity, rounded up to a power of two
	// (<=0: 256). A full ring backpressures callers, exactly like a
	// saturated stream-0 worker pool backpressures the read loop.
	Slots int
	// Consumers is the number of handler-running goroutines
	// (<=0: 4). It plays the worker-pool role: at most Consumers
	// handlers run on ring-owned goroutines. When the ring is idle,
	// synchronous callers additionally run their handler inline on
	// their own goroutine (caller-runs fast path), bounded by another
	// Consumers tokens.
	Consumers int
}

// spinBudget bounds the busy-wait phase on both sides of the ring
// before falling back to parking: long enough to cover a fast handler
// round trip, short enough that an idle ring quiesces in microseconds.
const spinBudget = 512

// NewRing builds a shared-memory ring transport serving srv's
// registered methods and ties its lifecycle to the server (Server.Close
// closes attached rings). It is the transport of choice for co-located
// tiers; see Linker in internal/runtime for the selection policy.
func NewRing(srv *Server, opts RingOptions) (*Ring, error) {
	slots := opts.Slots
	if slots <= 0 {
		slots = 256
	}
	// Round up to a power of two for the mask arithmetic.
	n := 1
	for n < slots {
		n <<= 1
	}
	consumers := opts.Consumers
	if consumers <= 0 {
		consumers = 4
	}
	r := &Ring{
		srv:       srv,
		mask:      uint64(n - 1),
		slots:     make([]ringSlot, n),
		stop:      make(chan struct{}),
		wake:      make(chan struct{}, consumers),
		consumers: consumers,
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	if err := srv.attachRing(r); err != nil {
		return nil, err
	}
	r.wg.Add(consumers)
	for i := 0; i < consumers; i++ {
		go r.consume()
	}
	return r, nil
}

// enqueue tickets rq into the ring, backpressuring (spin + yield) while
// the ring is full. It fails with ErrClosed once the ring closes and
// with ctx.Err() if the caller's context fires while waiting for space.
func (r *Ring) enqueue(ctx context.Context, rq *ringReq) error {
	r.producers.Add(1)
	defer r.producers.Add(-1)
	if r.closed.Load() {
		return ErrClosed
	}
	var full int
	for {
		pos := r.enqPos.Load()
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch dif := int64(seq) - int64(pos); {
		case dif == 0:
			if r.enqPos.CompareAndSwap(pos, pos+1) {
				slot.req = rq
				slot.seq.Store(pos + 1)
				if r.sleepers.Load() > 0 {
					select {
					case r.wake <- struct{}{}:
					default:
					}
				}
				return nil
			}
		case dif < 0:
			// Full ring: consumers are saturated. Backpressure the
			// caller, re-checking close and the caller's context so a
			// stuck ring cannot strand anyone.
			full++
			if r.closed.Load() {
				return ErrClosed
			}
			if full%64 == 0 {
				if done := ctx.Done(); done != nil {
					select {
					case <-done:
						return ctx.Err()
					default:
					}
				}
			}
			runtime.Gosched()
		}
	}
}

// dequeue pops the next request, or returns nil when the ring is
// empty.
func (r *Ring) dequeue() *ringReq {
	for {
		pos := r.deqPos.Load()
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch dif := int64(seq) - int64(pos+1); {
		case dif == 0:
			if r.deqPos.CompareAndSwap(pos, pos+1) {
				rq := slot.req
				slot.req = nil
				slot.seq.Store(pos + r.mask + 1)
				return rq
			}
		case dif < 0:
			return nil
		}
	}
}

// consume is one handler-running goroutine: spin on the ring while
// traffic is hot, park on the wake channel when it goes quiet, drain
// and exit on close. Every request that made it into the ring is
// completed by some consumer — Close waits for in-flight producers
// before stopping, so the drain below cannot miss one.
func (r *Ring) consume() {
	defer r.wg.Done()
	for {
		if rq := r.dequeue(); rq != nil {
			r.serve(rq)
			continue
		}
		// Spin briefly: at data-plane rates the next request lands
		// within the budget and parking would dominate the RTT.
		spun := false
		for i := 0; i < spinBudget; i++ {
			if rq := r.dequeue(); rq != nil {
				r.serve(rq)
				spun = true
				break
			}
			if i&63 == 63 {
				runtime.Gosched()
			}
		}
		if spun {
			continue
		}
		select {
		case <-r.stop:
			// Close protocol: no producer can be mid-enqueue any more,
			// so one final drain empties the ring, failing what's left
			// (the transport is going away, parity with conn teardown).
			for {
				rq := r.dequeue()
				if rq == nil {
					return
				}
				rq.err = ErrClosed
				r.complete(rq)
			}
		default:
		}
		r.sleepers.Add(1)
		// Recheck after advertising the park so an enqueue that missed
		// the sleeper count is seen here (the wake-loss handshake).
		if rq := r.dequeue(); rq != nil {
			r.sleepers.Add(-1)
			r.serve(rq)
			continue
		}
		select {
		case <-r.wake:
		case <-r.stop:
		}
		r.sleepers.Add(-1)
	}
}

// execute runs one request with wire-parity semantics: expired
// propagated deadlines are dropped unexecuted and counted, unknown
// methods and handler errors surface as ServerError whose text parses
// into the typed vocabulary (shed, deadline, not-leader) — exactly
// what the framed path reports after a wire crossing.
func (r *Ring) execute(ctx context.Context, method string, payload []byte, deadlineNS int64) ([]byte, error) {
	if late := expiredBy(deadlineNS); late >= 0 {
		r.srv.droppedExpired.Add(1)
		return nil, ServerError((&DeadlineExceededError{Late: late}).Error())
	}
	h, icept, ok := r.srv.handlerFor(method)
	if !ok {
		return nil, ServerError(ErrMethodNotFound.Error())
	}
	var reply []byte
	var err error
	if icept != nil {
		reply, err = icept(ctx, method, payload, h.fn)
	} else {
		reply, err = h.fn(ctx, payload)
	}
	if err != nil {
		return nil, ServerError(err.Error())
	}
	return reply, nil
}

// serve runs one dequeued request's handler and completes it.
func (r *Ring) serve(rq *ringReq) {
	ctx := rq.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	rq.reply, rq.err = r.execute(ctx, rq.method, rq.payload, rq.deadlineNS)
	r.complete(rq)
}

// complete hands the finished request back to its caller via the state
// machine; if the caller abandoned, the consumer frees the record.
func (r *Ring) complete(rq *ringReq) {
	for {
		switch rq.state.Load() {
		case reqPending:
			if rq.state.CompareAndSwap(reqPending, reqDone) {
				return // spinning caller collects and frees
			}
		case reqParked:
			if rq.state.CompareAndSwap(reqParked, reqDone) {
				rq.done <- struct{}{}
				return
			}
		case reqAbandoned:
			putRingReq(rq)
			return
		}
	}
}

// wait blocks until the consumer completes rq: a spin phase sized for
// fast handlers, then a park on the done channel. It returns false if
// the caller abandoned the request (ctx fired first) — the record then
// belongs to the consumer.
func (rq *ringReq) wait(ctx context.Context) bool {
	for i := 0; i < spinBudget; i++ {
		if rq.state.Load() == reqDone {
			return true
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	if !rq.state.CompareAndSwap(reqPending, reqParked) {
		return true // consumer finished during the spin
	}
	done := ctx.Done()
	if done == nil {
		<-rq.done
		return true
	}
	select {
	case <-rq.done:
		return true
	case <-done:
		if rq.state.CompareAndSwap(reqParked, reqAbandoned) {
			return false
		}
		// The consumer won the race and is signalling; consume the
		// token so the pooled record's channel stays empty.
		<-rq.done
		return true
	}
}

// call runs one ring round trip.
func (r *Ring) call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	var deadlineNS int64
	if dl, ok := ctx.Deadline(); ok {
		deadlineNS = dl.UnixNano()
	}
	// Caller-runs fast path: with no queued requests and an inline
	// token free, the caller executes the handler on its own goroutine —
	// zero enqueues, zero context switches, which is what takes the
	// co-located round trip under a microsecond (on one core, a
	// ring handoff costs two scheduler switches that dwarf the handler).
	// The token bound keeps inline concurrency at most Consumers on top
	// of the consumer goroutines; a busy ring falls through to the
	// queue, preserving backpressure under load.
	if r.enqPos.Load() == r.deqPos.Load() {
		for {
			n := r.inline.Load()
			if n >= int64(r.consumers) {
				break
			}
			if !r.inline.CompareAndSwap(n, n+1) {
				continue
			}
			if r.closed.Load() {
				r.inline.Add(-1)
				return nil, ErrClosed
			}
			reply, err := r.execute(ctx, method, payload, deadlineNS)
			r.inline.Add(-1)
			return reply, err
		}
	}
	rq := getRingReq(ctx, method, payload, deadlineNS)
	if err := r.enqueue(ctx, rq); err != nil {
		putRingReq(rq)
		return nil, err
	}
	if !rq.wait(ctx) {
		// Abandoned: the consumer owns rq now; the handler still runs
		// (or is dropped at its deadline check) but nobody is waiting.
		return nil, ctx.Err()
	}
	reply, err := rq.reply, rq.err
	putRingReq(rq)
	return reply, err
}

// Call performs a blocking call over the ring bounded by ctx.
func (r *Ring) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return r.call(ctx, method, payload)
}

// CallSync performs a blocking call over the ring with no deadline.
func (r *Ring) CallSync(method string, payload []byte) ([]byte, error) {
	return r.call(context.Background(), method, payload)
}

// Healthy reports whether the ring is open.
func (r *Ring) Healthy() bool { return !r.closed.Load() }

// Close shuts the ring down: new calls fail with ErrClosed, queued
// calls are failed (not executed), and Close returns once the
// consumers have drained and exited. Idempotent; also invoked by
// Server.Close for attached rings.
func (r *Ring) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Wait out in-flight enqueues so the post-stop drain is the last
	// reader the ring ever needs.
	for r.producers.Load() != 0 {
		runtime.Gosched()
	}
	close(r.stop)
	r.wg.Wait()
	return nil
}

// String implements fmt.Stringer for diagnostics.
func (r *Ring) String() string {
	return fmt.Sprintf("rpc.Ring{slots: %d, closed: %v}", len(r.slots), r.closed.Load())
}
