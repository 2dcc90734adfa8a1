package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hivemind/internal/rpc"
)

// This file is the gateway's overload front door: a bounded FIFO
// admission queue. The faas queueing model (§3.2) shows the knee where
// a serverless tier's latency explodes once offered load passes
// capacity; the live gateway refuses to walk off that cliff. Work
// beyond MaxConcurrent waits in one queue of at most QueueLen; an
// arrival at a full queue is shed at once. Shed responses carry an
// rpc.ShedError with a retry-after hint and are cheap: they never
// touch the runtime.

// shedRetryAfter is the back-off hint every shed response carries.
const shedRetryAfter = 100 * time.Millisecond

// AdmissionConfig bounds the gateway's overload admission control.
type AdmissionConfig struct {
	// MaxConcurrent bounds how many admitted requests run at once
	// (default 64, matching the RPC server's per-connection pool).
	MaxConcurrent int
	// QueueLen bounds the wait queue; a request arriving at a full
	// queue is shed immediately (default 2×MaxConcurrent).
	QueueLen int
}

// waiter is one queued admission request. state closes the race between
// a grant and the waiter's context cancelling: whoever CASes first owns
// the outcome, so a granted slot can never leak to an abandoned caller.
type waiter struct {
	enq   time.Time
	state atomic.Int32  // 0 pending, 1 granted, 2 cancelled
	ch    chan struct{} // buffered(1): the grant
}

// admission is the gateway's bounded queue (see the file comment). All
// mutable state sits behind one mutex; grants happen on the releasing
// goroutine, so admission adds no goroutines of its own.
type admission struct {
	g   *Gateway
	cfg AdmissionConfig

	mu     sync.Mutex
	active int       // admitted and running
	queue  []*waiter // FIFO; cancelled waiters may linger until popped
	queued int       // live (non-cancelled) waiters

	// shedFull/admitted are cumulative counters for tests and the
	// overload e2e assertions (metrics counters mirror them).
	shedFull atomic.Uint64
	admitted atomic.Uint64
}

func newAdmission(g *Gateway, cfg AdmissionConfig) *admission {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 64
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 2 * cfg.MaxConcurrent
	}
	return &admission{g: g, cfg: cfg}
}

// admit blocks until the request is granted a slot, shed, or its ctx
// ends. On success release must be called exactly once when the
// request finishes.
func (a *admission) admit(ctx context.Context) error {
	a.mu.Lock()
	if a.active < a.cfg.MaxConcurrent && a.queued == 0 {
		a.active++
		active := a.active
		a.mu.Unlock()
		a.admitted.Add(1)
		a.g.monitor.SetGauge("gateway-active", float64(active))
		return nil
	}
	// Queue-full is judged on live (non-cancelled) depth: a burst of
	// client timeouts leaves cancelled waiters parked in the slice, and
	// counting those would shed arrivals while the real queue is far
	// below QueueLen.
	if a.queued >= a.cfg.QueueLen {
		a.mu.Unlock()
		a.shedFull.Add(1)
		a.g.monitor.Inc("gateway-shed-full")
		return rpc.ShedError(shedRetryAfter)
	}
	w := &waiter{enq: time.Now(), ch: make(chan struct{}, 1)}
	a.queue = append(a.queue, w)
	a.queued++
	depth := a.queued
	a.mu.Unlock()
	a.g.monitor.SetGauge("gateway-queue-depth", float64(depth))
	select {
	case <-w.ch:
		a.g.monitor.Observe("gateway-admit-wait", time.Since(w.enq).Seconds())
		return nil
	case <-ctx.Done():
		if w.state.CompareAndSwap(0, 2) {
			a.mu.Lock()
			a.queued--
			if len(a.queue) > 2*a.cfg.QueueLen {
				a.compactLocked()
			}
			depth := a.queued
			a.mu.Unlock()
			// Re-publish the depth gauge: the cancelled waiter left the
			// queue, and the next release/enqueue may be far away.
			a.g.monitor.SetGauge("gateway-queue-depth", float64(depth))
			return ctx.Err()
		}
		// A grant raced the cancellation and won; honour it so the slot
		// is accounted for, then let the caller's ctx check surface the
		// cancellation.
		<-w.ch
		return nil
	}
}

// release returns an admitted request's slot and grants waiters.
func (a *admission) release() {
	a.mu.Lock()
	a.active--
	a.grantLocked()
	active, depth := a.active, a.queued
	a.mu.Unlock()
	a.g.monitor.SetGauge("gateway-active", float64(active))
	a.g.monitor.SetGauge("gateway-queue-depth", float64(depth))
}

// grantLocked fills free slots from the head of the queue. Cancelled
// waiters are discarded in passing: admit's cancel path owns their
// queued decrement.
func (a *admission) grantLocked() {
	for a.active < a.cfg.MaxConcurrent && len(a.queue) > 0 {
		w := a.queue[0]
		a.queue[0] = nil
		a.queue = a.queue[1:]
		if !w.state.CompareAndSwap(0, 1) {
			continue
		}
		a.queued--
		a.active++
		a.admitted.Add(1)
		w.ch <- struct{}{}
	}
	if len(a.queue) == 0 && cap(a.queue) > 4*a.cfg.QueueLen {
		a.queue = nil // shed a grown backing array
	}
}

// compactLocked drops cancelled waiters from the backing slice so a
// cancellation storm cannot grow it without bound. Accounting is
// untouched: the cancelling goroutine owns the queued decrement whether
// or not its waiter is still in the slice.
func (a *admission) compactLocked() {
	q := a.queue
	kept := q[:0]
	for _, w := range q {
		if w.state.Load() != 2 {
			kept = append(kept, w)
		}
	}
	clear(q[len(kept):])
	a.queue = kept
}

// AdmissionStats is a snapshot of the overload front door's counters.
type AdmissionStats struct {
	Admitted uint64 // requests granted a slot
	ShedFull uint64 // shed on arrival at a full queue
	// ShedCoDel is always 0: the CoDel control law is gone. The field
	// stays only because the benchmark ledger still reads it
	// (runtime.shed_codel); it goes when the ledger stops.
	ShedCoDel uint64
}

// AdmissionStats snapshots the gateway's overload counters; zero-valued
// when the gateway runs without an Overload config.
func (g *Gateway) AdmissionStats() AdmissionStats {
	if g.adm == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		Admitted: g.adm.admitted.Load(),
		ShedFull: g.adm.shedFull.Load(),
	}
}
