package runtime

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hivemind/internal/rpc"
)

// This file is the gateway's overload front door: a bounded, prioritised
// admission queue with CoDel-style sustained-delay shedding. The faas
// queueing model (§3.2) shows the knee where a serverless tier's latency
// explodes once offered load passes capacity; the live gateway refuses to
// walk off that cliff. Work beyond MaxConcurrent queues per priority
// lane; a full lane sheds immediately, and a lane whose queueing delay
// stays above Target for a whole Interval sheds on the CoDel control law
// (drop-at-dequeue, interval/√count cadence) so sustained overload
// degrades to a controlled goodput plateau instead of a metastable
// timeout storm. Shed responses carry an rpc.ShedError with a
// retry-after hint and are cheap: they never touch the runtime.

// Lane is a request priority class. Control-plane traffic (heartbeats,
// failover probes, recovery) must keep flowing through an overloaded
// gateway — it is what ends the overload — so control lanes are granted
// ahead of interactive, and interactive ahead of batch.
type Lane int

const (
	// LaneInteractive is the default lane for latency-sensitive edge
	// requests (the zero value: unlisted methods land here).
	LaneInteractive Lane = iota
	// LaneControl is the never-shed-by-CoDel control plane lane.
	LaneControl
	// LaneBatch is the first lane to starve under overload.
	LaneBatch
)

// laneRank orders grant priority: lower rank is granted first.
func laneRank(l Lane) int {
	switch l {
	case LaneControl:
		return 0
	case LaneBatch:
		return 2
	default:
		return 1
	}
}

// laneCount is the number of priority ranks.
const laneCount = 3

// AdmissionConfig tunes the gateway's overload admission control.
type AdmissionConfig struct {
	// MaxConcurrent bounds how many admitted requests run at once
	// (default 64, matching the RPC server's per-connection pool).
	MaxConcurrent int
	// QueueLen bounds each lane's wait queue; a request arriving at a
	// full lane is shed immediately (default 2×MaxConcurrent).
	QueueLen int
	// Target is the acceptable standing queueing delay (CoDel target,
	// default 5ms).
	Target time.Duration
	// Interval is how long queueing delay must stay above Target before
	// shedding starts (CoDel interval, default 100ms).
	Interval time.Duration
	// RetryAfter is the back-off hint shed responses carry (default
	// Interval).
	RetryAfter time.Duration
	// Lanes maps RPC method names to priority lanes; unlisted methods
	// ride LaneInteractive.
	Lanes map[string]Lane
}

// waiter is one queued admission request. state closes the race between
// a grant and the waiter's context cancelling: whoever CASes first owns
// the outcome, so a granted slot can never leak to an abandoned caller.
type waiter struct {
	enq   time.Time
	lane  Lane
	state atomic.Int32 // 0 pending, 1 claimed (granted or shed), 2 cancelled
	ch    chan error   // buffered(1): nil = admitted, non-nil = shed
}

// admission is the gateway's bounded prioritised queue (see the file
// comment). All mutable state sits behind one mutex; grants happen on
// the releasing goroutine, so admission adds no goroutines of its own.
type admission struct {
	g         *Gateway
	cfg       AdmissionConfig
	releaseFn func() // a.release, bound once: a method value allocates

	mu     sync.Mutex
	active int                  // admitted and running
	queues [laneCount][]*waiter // FIFO per rank
	queued int                  // live (non-cancelled) waiters across lanes
	live   [laneCount]int       // live waiters per rank (cancelled excluded)

	// CoDel control law state, shared across the shed-eligible lanes.
	firstAbove time.Time // when sojourn first exceeded Target (zero: below)
	dropping   bool
	dropCount  int
	dropNext   time.Time

	// shedFull/shedCoDel/admitted are cumulative counters for tests and
	// the overload e2e assertions (metrics counters mirror them).
	shedFull  atomic.Uint64
	shedCoDel atomic.Uint64
	admitted  atomic.Uint64
}

func newAdmission(g *Gateway, cfg AdmissionConfig) *admission {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 64
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 2 * cfg.MaxConcurrent
	}
	if cfg.Target <= 0 {
		cfg.Target = 5 * time.Millisecond
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = cfg.Interval
	}
	a := &admission{g: g, cfg: cfg}
	a.releaseFn = a.release
	return a
}

// lane resolves a method's priority class.
func (a *admission) lane(method string) Lane {
	if a.cfg.Lanes == nil {
		return LaneInteractive
	}
	return a.cfg.Lanes[method]
}

// admit blocks until the request is granted a slot, shed, or its ctx
// ends. On success the returned release func must be called exactly once
// when the request finishes.
func (a *admission) admit(ctx context.Context, method string) (release func(), err error) {
	lane := a.lane(method)
	a.mu.Lock()
	if a.active < a.cfg.MaxConcurrent && a.queued == 0 {
		a.active++
		active := a.active
		a.mu.Unlock()
		a.admitted.Add(1)
		a.g.monitor.SetGauge("gateway-active", float64(active))
		return a.releaseFn, nil
	}
	r := laneRank(lane)
	// Lane-full is judged on live (non-cancelled) depth: a burst of
	// client timeouts leaves cancelled waiters parked in the slice, and
	// counting those would shed arrivals while the lane's real queue is
	// far below QueueLen.
	if a.live[r] >= a.cfg.QueueLen {
		a.mu.Unlock()
		a.shedFull.Add(1)
		a.g.monitor.Inc("gateway-shed-full")
		return nil, rpc.ShedError(a.cfg.RetryAfter)
	}
	w := &waiter{enq: time.Now(), lane: lane, ch: make(chan error, 1)}
	a.queues[r] = append(a.queues[r], w)
	a.queued++
	a.live[r]++
	depth := a.queued
	a.mu.Unlock()
	a.g.monitor.SetGauge("gateway-queue-depth", float64(depth))
	select {
	case werr := <-w.ch:
		if werr != nil {
			return nil, werr
		}
		a.g.monitor.Observe("gateway-admit-wait", time.Since(w.enq).Seconds())
		return a.releaseFn, nil
	case <-ctx.Done():
		if w.state.CompareAndSwap(0, 2) {
			a.mu.Lock()
			a.queued--
			a.live[r]--
			if len(a.queues[r]) > 2*a.cfg.QueueLen {
				a.compactLocked(r)
			}
			depth := a.queued
			a.mu.Unlock()
			// Re-publish the depth gauge: the cancelled waiter left the
			// queue, and the next release/enqueue may be far away.
			a.g.monitor.SetGauge("gateway-queue-depth", float64(depth))
			return nil, ctx.Err()
		}
		// A grant (or shed) raced the cancellation and won; honour it so
		// the slot is accounted for, then let the caller's ctx check
		// surface the cancellation.
		if werr := <-w.ch; werr != nil {
			return nil, werr
		}
		return a.releaseFn, nil
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

// popLocked dequeues the next live waiter in priority order (control,
// interactive, batch; FIFO within a lane). Cancelled waiters are
// discarded in passing.
func (a *admission) popLocked() *waiter {
	for r := 0; r < laneCount; r++ {
		q := a.queues[r]
		for len(q) > 0 {
			w := q[0]
			q[0] = nil
			q = q[1:]
			a.queues[r] = q
			if w.state.CompareAndSwap(0, 1) {
				a.queued--
				a.live[r]--
				return w
			}
			// Cancelled: admit's cancel path owns the queued/live
			// decrements.
		}
		if len(q) == 0 && cap(a.queues[r]) > 4*a.cfg.QueueLen {
			a.queues[r] = nil // shed a grown backing array
		}
	}
	return nil
}

// compactLocked drops cancelled waiters from a lane's backing slice so
// a cancellation storm cannot grow it without bound. Accounting is
// untouched: the cancelling goroutine owns the queued/live decrements
// whether or not its waiter is still in the slice.
func (a *admission) compactLocked(r int) {
	q := a.queues[r]
	kept := q[:0]
	for _, w := range q {
		if w.state.Load() != 2 {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	a.queues[r] = kept
}

// grantLocked fills free slots from the queues, applying the CoDel
// control law at dequeue: a waiter whose sojourn proves sustained
// standing delay is shed instead of granted, which both sheds load and
// drains the queue toward Target.
func (a *admission) grantLocked() {
	now := time.Now()
	for a.active < a.cfg.MaxConcurrent {
		w := a.popLocked()
		if w == nil {
			return
		}
		sojourn := now.Sub(w.enq)
		if a.codelShedLocked(now, sojourn, w.lane) {
			a.shedCoDel.Add(1)
			a.g.monitor.Inc("gateway-shed-codel")
			w.ch <- rpc.ShedError(a.cfg.RetryAfter)
			continue
		}
		a.active++
		a.admitted.Add(1)
		w.ch <- nil
	}
}

// codelShedLocked is the CoDel control law (drop-at-dequeue variant):
// once the observed sojourn has stayed above Target for a full Interval
// the queue enters the dropping state and sheds on an interval/√count
// schedule until sojourn falls back under Target. The control lane
// feeds the law's timing but is never itself shed.
func (a *admission) codelShedLocked(now time.Time, sojourn time.Duration, lane Lane) bool {
	if sojourn < a.cfg.Target {
		a.firstAbove = time.Time{}
		a.dropping = false
		a.dropCount = 0
		return false
	}
	if a.firstAbove.IsZero() {
		a.firstAbove = now
		return false
	}
	if lane == LaneControl {
		return false
	}
	if !a.dropping {
		if now.Sub(a.firstAbove) < a.cfg.Interval {
			return false
		}
		a.dropping = true
		a.dropCount = 1
		a.dropNext = now.Add(a.cfg.Interval)
		return true
	}
	if now.Before(a.dropNext) {
		return false
	}
	a.dropCount++
	a.dropNext = now.Add(time.Duration(float64(a.cfg.Interval) / math.Sqrt(float64(a.dropCount))))
	return true
}

// AdmissionStats is a snapshot of the overload front door's counters.
type AdmissionStats struct {
	Admitted  uint64 // requests granted a slot
	ShedFull  uint64 // shed on arrival at a full lane queue
	ShedCoDel uint64 // shed at dequeue by the CoDel control law
	Active    int    // currently running
	Queued    int    // currently waiting
}

// AdmissionStats snapshots the gateway's overload counters; zero-valued
// when the gateway runs without an Overload config.
func (g *Gateway) AdmissionStats() AdmissionStats {
	if g.adm == nil {
		return AdmissionStats{}
	}
	a := g.adm
	a.mu.Lock()
	active, queued := a.active, a.queued
	a.mu.Unlock()
	return AdmissionStats{
		Admitted:  a.admitted.Load(),
		ShedFull:  a.shedFull.Load(),
		ShedCoDel: a.shedCoDel.Load(),
		Active:    active,
		Queued:    queued,
	}
}
