// Package sim implements a deterministic discrete-event simulation kernel.
//
// An event is a record: a time, a kind and two int32 arguments. Model
// code registers a Handler per kind (Handle) and posts records (Post);
// the Engine executes them in time order, ties broken by scheduling
// order, which makes runs with the same seed fully deterministic. Kind
// 0 runs a closure, for At, Defer and tickers. On top of the event loop
// the package provides multi-server FIFO resources and slabs for the
// state records name — the building blocks for the queueing-network
// swarm simulator described in Section 5.6 of the HiveMind paper.
//
// The event loop is the hot path under the entire evaluation sweep, so
// it is tuned to shed allocations: a record names its state by index
// instead of capturing it, event structs come from per-engine slabs and
// are recycled through a free list (safe because recycling bumps a
// generation counter that stale Timer handles check), the priority
// queue is a hand-rolled binary heap with inlined comparisons rather
// than container/heap's interface-dispatched one, and cancelled events
// leave the heap in bulk once they outnumber the live ones.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is virtual simulation time in seconds.
type Time = float64

// Infinity is a time later than any event the simulator will ever reach.
const Infinity Time = 1e18

// event is a scheduled record: handler kind with arguments a and b, or
// fn when kind is 0. seq breaks ties between events scheduled for the
// same instant so execution order matches scheduling order. gen counts
// recycles: a Timer binds to (event, gen) and goes inert once the event
// is popped or purged, so handle reuse cannot cancel an unrelated later
// event. eng lets Cancel count the dead event on its engine.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	eng    *Engine
	a, b   int32
	gen    uint32 // bumped on every recycle
	kind   uint8
	cancel bool
}

// Handler runs a record event with the arguments it was posted with.
type Handler func(a, b int32)

// Engine is a discrete-event simulation executive. It is not safe for
// concurrent use; all model code runs on the caller's goroutine inside
// Run / RunUntil.
type Engine struct {
	now    Time
	events []*event // binary min-heap on (at, seq)
	seq    uint64
	rng    *rand.Rand
	// free recycles event structs. It is deliberately per-engine rather
	// than a shared sync.Pool: the evaluation runner executes many
	// engines on concurrent goroutines, and a cross-engine pool would
	// let a stale Timer in one engine read an event another engine is
	// rewriting. Engines are single-goroutine, so this list needs no
	// synchronization at all.
	free     []*event
	slab     []event // fresh events, carved off in order
	handlers []Handler
	stopped  bool
	steps    uint64
	dead     int // cancelled events still in the heap
}

// NewEngine returns an engine at time zero with a deterministic RNG
// seeded by seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Handle registers h and returns its record kind: 1, 2, … in
// registration order (kind 0 is the closure event).
func (e *Engine) Handle(h Handler) uint8 {
	if len(e.handlers) == 255 {
		panic("sim: more than 255 record kinds")
	}
	e.handlers = append(e.handlers, h)
	return uint8(len(e.handlers))
}

// Post schedules a record of a registered kind at absolute time t and
// returns its cancel handle; it allocates nothing once the pool is warm.
func (e *Engine) Post(t Time, kind uint8, a, b int32) Timer {
	return e.schedule(t, nil, kind, a, b)
}

// PostIn is Post at d seconds from now.
func (e *Engine) PostIn(d Time, kind uint8, a, b int32) Timer {
	return e.schedule(e.now+d, nil, kind, a, b)
}

// Fire runs the handler of a record kind now, inline, without an event:
// how a model component hands a result to the record its caller named.
// Kind 0 names no handler, so Fire(0, …) does nothing.
func (e *Engine) Fire(kind uint8, a, b int32) {
	if kind != 0 {
		e.handlers[kind-1](a, b)
	}
}

// less orders events by time, ties broken by scheduling order.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the heap. The common case — an event scheduled
// later than everything pending — is a single append plus one parent
// comparison; out-of-order inserts sift up as usual.
func (e *Engine) push(ev *event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event. It sifts a hole down and
// drops the displaced tail element in once, halving pointer writes
// versus swap-based sift.
func (e *Engine) pop() *event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		down(h, 0, last)
	}
	e.events = h
	return top
}

// down sifts ev from the hole at i to its place in h.
func down(h []*event, i int, ev *event) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// purge drops every cancelled event from the heap and re-heapifies the
// rest in O(n), as Go's runtime does with deleted timers. (at, seq) is
// a total order, so the live events run in the same order as before.
func (e *Engine) purge() {
	h := e.events[:0]
	for _, ev := range e.events {
		if ev.cancel {
			e.recycle(ev)
		} else {
			h = append(h, ev)
		}
	}
	clear(e.events[len(h):])
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i, h[i])
	}
	e.events, e.dead = h, 0
}

// recycle returns a popped event to the free list. The generation bump
// makes any Timer still holding the event inert.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// schedule is the allocation-lean core of Post/At/Defer: it takes
// an event from the free list, or else from the slab, which grows with
// the queue, enqueues it and returns its handle by value.
func (e *Engine) schedule(t Time, fn func(), kind uint8, a, b int32) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		if len(e.slab) == 0 {
			e.slab = make([]event, min(max(len(e.events), 16), 4096))
		}
		ev = &e.slab[0]
		e.slab = e.slab[1:]
	}
	ev.at, ev.seq, ev.fn, ev.eng, ev.kind, ev.a, ev.b, ev.cancel = t, e.seq, fn, e, kind, a, b, false
	e.seq++
	e.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Timer is a handle to a scheduled event that can be cancelled before it
// fires.
type Timer struct {
	ev        *event
	gen       uint32
	cancelled bool
}

// Cancel prevents the timer's callback from running. Cancelling an
// already-fired or already-cancelled timer is a no-op. It reports whether
// the callback was actually prevented. The dead event stays in the heap
// until popped, or until the dead outnumber the live (and 64): then the
// engine purges them all.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.cancelled {
		return false
	}
	ev := t.ev
	if ev.gen != t.gen || ev.cancel {
		// The event fired (and was recycled, possibly into a new life),
		// is mid-dispatch, or another handle cancelled it.
		return false
	}
	ev.cancel = true
	// Release the closure immediately: a cancelled event can sit in the
	// heap until popped, and fn may capture large model state.
	ev.fn = nil
	t.cancelled = true
	e := ev.eng
	if e.dead++; e.dead > 64 && 2*e.dead > len(e.events) {
		e.purge()
	}
	return true
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it indicates a model bug that would silently corrupt causality.
// A closure event cannot be cancelled; model components that re-arm or
// cancel post records instead.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, fn, 0, 0, 0)
}

// Defer schedules fn to run d seconds from now; negative delays are
// clamped to zero. The event struct itself is pool-recycled, so a Defer
// round trip is allocation-free at steady state.
func (e *Engine) Defer(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, fn, 0, 0, 0)
}

// Stop makes the current Run/RunUntil call return after the in-flight
// event completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() { e.RunUntil(Infinity) }

// RunUntil executes events with timestamps <= limit and then advances
// the clock to limit, even when the queue emptied earlier — callers
// stepping a simulation in fixed windows rely on Now() landing exactly
// on each window boundary. The exceptions leave the clock where it is:
// Stop (the run was interrupted mid-window), Run, whose limit of
// Infinity is a horizon, not a boundary, and a limit already behind
// Now(), since the clock never runs backwards. It returns the number
// of events executed during this call.
func (e *Engine) RunUntil(limit Time) uint64 {
	e.stopped = false
	var executed uint64
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > limit {
			e.now = max(e.now, limit)
			return executed
		}
		next := e.pop()
		if next.cancel {
			e.dead--
			e.recycle(next)
			continue
		}
		e.now = next.at
		fn, kind, a, b := next.fn, next.kind, next.a, next.b
		e.recycle(next)
		if kind == 0 {
			fn()
		} else {
			e.handlers[kind-1](a, b)
		}
		e.steps++
		executed++
	}
	if !e.stopped && limit < Infinity && limit > e.now {
		e.now = limit
	}
	return executed
}

// Every schedules fn to run every period seconds starting at now+period,
// until the returned Ticker is stopped. Jitter, if positive, offsets
// each firing by a zero-mean uniform phase drawn from
// [-jitter/2, jitter/2), desynchronizing periodic processes
// (heartbeats, monitors) without biasing the mean period: firings stay
// anchored to the ideal k*period grid, so the long-run firing rate is
// exactly 1/period regardless of jitter.
func (e *Engine) Every(period, jitter Time, fn func()) *Ticker {
	t := &Ticker{eng: e, period: period, jitter: jitter, fn: fn, base: e.now}
	// One closure for the ticker's whole life; each firing re-arms it,
	// so steady-state ticking allocates nothing.
	t.fire = func() {
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

// Ticker repeatedly schedules a callback. Stop it to end the cycle.
type Ticker struct {
	eng    *Engine
	period Time
	jitter Time
	fn     func()
	fire   func()
	next   Timer
	// base is the unjittered anchor of the last scheduled firing; each
	// arm advances it by exactly period so jitter perturbs the phase of
	// individual firings without accumulating into the period.
	base    Time
	stopped bool
}

func (t *Ticker) arm() {
	t.base += t.period
	at := t.base
	if t.jitter > 0 {
		at += (t.eng.Rand().Float64() - 0.5) * t.jitter
	}
	// A large jitter (> period) can draw a phase behind the clock;
	// clamp rather than schedule in the past.
	if at < t.eng.now {
		at = t.eng.now
	}
	t.next = t.eng.schedule(at, t.fire, 0, 0, 0)
}

// Stop ends the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.next.Cancel()
}
