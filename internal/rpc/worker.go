package rpc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// expiredBy reports how far past its deadline a request is, or a
// negative duration when the deadline is unset or still ahead.
func expiredBy(deadlineNS int64) time.Duration {
	if deadlineNS == 0 {
		return -1
	}
	return time.Duration(time.Now().UnixNano() - deadlineNS)
}

// defaultWorkers sizes the per-connection server worker pool, matching
// the default client caller pool: the two ends of a connection can
// keep the same number of requests in flight.
const defaultWorkers = 64

// reqCtx is a minimal cancellable context, one allocation per request.
// context.WithCancel would cost a child registration in a shared
// parent on every request — measurable at data-plane rates — so the
// dispatcher tracks live requests itself and cancels them directly on
// cancel frames and connection teardown. The done channel is lazy:
// most handlers never select on it.
type reqCtx struct {
	// deadline is the request's wire-propagated absolute deadline (zero:
	// none). Written once before the task is submitted to the pool, read
	// only afterwards, so it needs no locking.
	deadline time.Time

	mu   sync.Mutex
	done chan struct{}
	err  error
}

var _ context.Context = (*reqCtx)(nil)

func (c *reqCtx) Deadline() (time.Time, bool) { return c.deadline, !c.deadline.IsZero() }

func (c *reqCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		}
	}
	return c.done
}

func (c *reqCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// passiveKey marks a reqCtx through Value, surviving WithValue wrappers.
type passiveKey struct{}

func (c *reqCtx) Value(key any) any {
	if _, ok := key.(passiveKey); ok {
		return true
	}
	return nil
}

// PassiveDeadline reports whether ctx is (or wraps) a framed request's
// context, whose deadline rides the wire but never fires: a handler
// that must stop at that deadline arms its own timer. Ring handlers get
// the caller's live context instead, and this reports false for them.
func PassiveDeadline(ctx context.Context) bool {
	return ctx.Value(passiveKey{}) != nil
}

// cancel fires the context once; later calls are no-ops.
func (c *reqCtx) cancel(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		if c.done != nil {
			close(c.done)
		}
	}
	c.mu.Unlock()
}

// task is one request handed from a connection's read loop to its
// worker pool. ctx is nil for plain handlers (registered via Register):
// they ignore their context, so no cancellation tracking is kept for
// them and run substitutes context.Background.
type task struct {
	h       HandlerCtx // nil: method not found
	ctx     *reqCtx
	callID  uint64
	payload []byte
	// stream is the logical stream the call id belongs to; the
	// dispatcher schedules streams round-robin so a flooded stream
	// cannot head-of-line-block its siblings on the shared connection.
	stream uint16
	// deadlineNS is the request's wire-propagated absolute deadline
	// (UnixNano; 0: none). Checked when a worker picks the task up: work
	// that expired while queued is dropped, not executed.
	deadlineNS int64
}

// streamQ is one stream's FIFO of queued tasks, drained through a
// head index so pops never shift the slice.
type streamQ struct {
	tasks []task
	head  int
	ready bool // present in the dispatcher's round-robin list
}

func (q *streamQ) push(t task) { q.tasks = append(q.tasks, t) }

func (q *streamQ) pop() task {
	t := q.tasks[q.head]
	q.tasks[q.head] = task{}
	q.head++
	if q.head == len(q.tasks) {
		q.tasks = q.tasks[:0]
		q.head = 0
	}
	return t
}

func (q *streamQ) size() int { return len(q.tasks) - q.head }

// dispatcher runs a connection's request handlers on a bounded pool of
// workers, replacing goroutine-per-request: under load at most max
// handlers run concurrently and the rest queue, per logical stream.
// Queued streams are scheduled round-robin, so one stream flooding the
// connection delays its own calls, not its siblings' — the software
// analogue of per-flow provisioning in the paper's RPC fabric, and the
// fix for the per-call head-of-line interaction a single shared FIFO
// had. Workers are spawned lazily, so an idle connection costs one
// goroutine (the read loop), not max+1.
//
// Backpressure is one rule for every stream, the default stream 0
// included: the read loop never blocks (that would stall the very
// siblings multiplexing is meant to isolate), so a request whose
// stream already has max tasks queued is shed with a typed ShedError —
// the same vocabulary the admission layer uses, so IsShed handling
// applies unchanged. A stream whose caller pool exceeds the worker
// bound can reach it (a FailoverClient whose ConnEndpoint pools 1024 callers);
// FailoverStats.Shed counts every shed the caller sees.
//
// Cancel frames are never routed through the pool — the read loop
// services them directly — so cancellation stays responsive while
// every worker is stuck in a slow handler.
type dispatcher struct {
	w   *connWriter
	max int

	mu      sync.Mutex
	workC   *sync.Cond // workers wait here for queued tasks
	queues  map[uint16]*streamQ
	rr      []*streamQ // round-robin list of streams with queued tasks
	rrIdx   int
	spawned int
	idle    int
	closed  bool

	// dropped, when non-nil, counts requests dropped unexecuted because
	// their deadline expired while they queued (the server's counter).
	dropped *atomic.Uint64

	// inflight maps live call ids to their request contexts so
	// kindCancel frames and connection teardown can fire them.
	inflightMu sync.Mutex
	inflight   map[uint64]*reqCtx
}

func newDispatcher(w *connWriter, workers int) *dispatcher {
	if workers <= 0 {
		workers = defaultWorkers
	}
	d := &dispatcher{
		w:        w,
		max:      workers,
		queues:   make(map[uint16]*streamQ),
		inflight: make(map[uint64]*reqCtx),
	}
	d.workC = sync.NewCond(&d.mu)
	return d
}

// register records a live call so cancel frames can reach it. It must
// run before the task is submitted.
func (d *dispatcher) register(callID uint64, rc *reqCtx) {
	d.inflightMu.Lock()
	d.inflight[callID] = rc
	d.inflightMu.Unlock()
}

// cancelCall fires the context of a live call, if any.
func (d *dispatcher) cancelCall(callID uint64) {
	d.inflightMu.Lock()
	rc := d.inflight[callID]
	d.inflightMu.Unlock()
	if rc != nil {
		rc.cancel(context.Canceled)
	}
}

// unregister removes a finished call.
func (d *dispatcher) unregister(callID uint64) {
	d.inflightMu.Lock()
	delete(d.inflight, callID)
	d.inflightMu.Unlock()
}

// abortAll cancels every in-flight request context: connection
// teardown, so handlers observe the disconnect.
func (d *dispatcher) abortAll() {
	d.inflightMu.Lock()
	for _, rc := range d.inflight {
		rc.cancel(context.Canceled)
	}
	d.inflightMu.Unlock()
}

// markReady puts q on the round-robin list if it is not already there.
// Caller holds d.mu.
func (d *dispatcher) markReady(q *streamQ) {
	if !q.ready {
		q.ready = true
		d.rr = append(d.rr, q)
	}
}

// next pops the next task in round-robin stream order. Caller holds
// d.mu.
func (d *dispatcher) next() (task, bool) {
	for len(d.rr) > 0 {
		if d.rrIdx >= len(d.rr) {
			d.rrIdx = 0
		}
		q := d.rr[d.rrIdx]
		if q.size() == 0 {
			q.ready = false
			d.rr = append(d.rr[:d.rrIdx], d.rr[d.rrIdx+1:]...)
			continue
		}
		t := q.pop()
		if q.size() == 0 {
			q.ready = false
			d.rr = append(d.rr[:d.rrIdx], d.rr[d.rrIdx+1:]...)
		} else {
			d.rrIdx++
		}
		return t, true
	}
	return task{}, false
}

// submit hands one request to the pool. A new worker is spawned only
// when none is idle and the pool is below its bound; otherwise the
// task queues under its stream. A stream with max tasks already queued
// sheds instead: blocking would stall every sibling stream sharing the
// read loop.
func (d *dispatcher) submit(t task) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	if q := d.queues[t.stream]; q != nil && q.size() >= d.max {
		d.mu.Unlock()
		d.refuse(t, shedResponse)
		return
	}
	// Fast path: idle capacity and nothing queued ahead — hand the task
	// straight to a fresh worker, skipping the queue.
	if d.idle == 0 && d.spawned < d.max && len(d.rr) == 0 {
		d.spawned++
		d.mu.Unlock()
		go d.worker(t, true)
		return
	}
	q := d.queues[t.stream]
	if q == nil {
		q = &streamQ{}
		d.queues[t.stream] = q
	}
	q.push(t)
	d.markReady(q)
	if d.idle > 0 {
		d.workC.Signal()
	} else if d.spawned < d.max {
		d.spawned++
		go d.worker(task{}, false) // fetches its first task from the queue
	}
	d.mu.Unlock()
}

// close stops the pool: workers drain queued tasks (their contexts are
// already cancelled by connection teardown) and exit. Only the read
// loop submits, and only after it has returned is close called, so no
// send can race the close.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.workC.Broadcast()
	d.mu.Unlock()
}

// worker runs tasks until the dispatcher closes and the queues drain.
// runFirst marks whether t carries a real first task (the fast-path
// spawn) or the goroutine should go straight to the fetch loop.
func (d *dispatcher) worker(t task, runFirst bool) {
	for {
		if runFirst {
			d.run(t)
		}
		runFirst = true
		d.mu.Lock()
		for {
			var ok bool
			if t, ok = d.next(); ok {
				break
			}
			if d.closed {
				d.mu.Unlock()
				return
			}
			d.idle++
			d.workC.Wait()
			d.idle--
		}
		d.mu.Unlock()
	}
}

// refusal kinds for refuse.
const (
	shedResponse = iota
	expiredResponse
)

// refuse answers a request with a typed error without executing it:
// shedResponse for a full stream queue, expiredResponse for a
// propagated deadline that passed while the request queued.
func (d *dispatcher) refuse(t task, why int) {
	if t.ctx != nil {
		d.unregister(t.callID)
	}
	var msg string
	switch why {
	case shedResponse:
		msg = string(ShedError(0))
	case expiredResponse:
		msg = (&DeadlineExceededError{Late: expiredBy(t.deadlineNS)}).Error()
	}
	if buf, err := encodeFrame(kindError, t.callID, "", []byte(msg)); err == nil {
		d.w.enqueue(buf)
	}
}

// run executes one handler and queues its response frame. Write
// failures surface through connection teardown, exactly like the
// pre-pool direct-write path. A request whose wire deadline expired
// while it queued is dropped here — answered with a typed
// DeadlineExceededError, never executed — so a backed-up pool stops
// burning capacity on work the caller has already abandoned. The
// deadline is per-request and therefore per-stream: refusing one
// stream's expired request has no effect on its siblings.
func (d *dispatcher) run(t task) {
	var ctx context.Context = context.Background()
	if t.ctx != nil {
		ctx = t.ctx
		defer d.unregister(t.callID)
	}
	kind := byte(kindResponse)
	var out []byte
	if late := expiredBy(t.deadlineNS); late >= 0 && t.h != nil {
		if d.dropped != nil {
			d.dropped.Add(1)
		}
		kind = kindError
		out = []byte((&DeadlineExceededError{Late: late}).Error())
	} else if t.h == nil {
		kind = kindError
		out = []byte(ErrMethodNotFound.Error())
	} else if res, err := t.h(ctx, t.payload); err != nil {
		kind = kindError
		out = []byte(err.Error())
	} else {
		out = res
	}
	if kind == kindResponse && len(out) >= lendMin {
		// Large response: lend the handler's result to the writer so it
		// is gathered into the socket without an intermediate copy. The
		// handler surrendered the slice by returning it, so nothing
		// mutates it while the write is in flight.
		if buf, err := encode(kindResponse, t.callID, "", nil, out, true); err == nil {
			d.w.enqueueVec(buf, out)
			return
		}
	}
	buf, err := encodeFrame(kind, t.callID, "", out)
	if err != nil {
		// Response too large to frame: tell the caller instead of
		// leaving the call pending forever.
		if buf, err = encodeFrame(kindError, t.callID, "", []byte(err.Error())); err != nil {
			return
		}
	}
	d.w.enqueue(buf) // best effort: teardown surfaces via read loops
}
