package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// notLeaderPrefix marks the redirect error a replicated service's
// standby returns when asked to do primary-only work. The suffix is the
// replica id of the believed leader, or -1 when an election is still in
// progress.
const notLeaderPrefix = "rpc: not leader; leader="

// NotLeaderError builds the standard redirect a standby replica returns
// for primary-only methods. leader is the replica id the caller should
// re-route to (-1: unknown, mid-election).
func NotLeaderError(leader int) ServerError {
	return ServerError(notLeaderPrefix + strconv.Itoa(leader))
}

// RedirectTarget extracts the leader hint from a NotLeaderError. ok is
// false for every other error.
func RedirectTarget(err error) (leader int, ok bool) {
	var se ServerError
	if !errors.As(err, &se) {
		return 0, false
	}
	s := string(se)
	if !strings.HasPrefix(s, notLeaderPrefix) {
		return 0, false
	}
	n, convErr := strconv.Atoi(s[len(notLeaderPrefix):])
	if convErr != nil {
		return 0, false
	}
	return n, true
}

// FailoverOptions tunes the hardened caller. The zero value of every
// field is the plain leader-following client: fixed backoff, no jitter,
// breaker and heartbeat off, every routed method retryable.
type FailoverOptions struct {
	// Callers sizes the caller pool of each connection DialFailover
	// builds (<=0: 8).
	Callers int
	// Attempts bounds call attempts across endpoints and sweeps, the
	// first one included (<=0: 4 × the endpoint count; 1: never retry).
	Attempts int
	// RetryBackoff is the pause before re-attempting after a redirect or
	// a transport failure — an election may still be settling
	// (<=0: 25 ms).
	RetryBackoff time.Duration
	// BackoffCap, when above RetryBackoff, makes the pause double with
	// every re-attempt up to this cap; otherwise the pause is fixed.
	BackoffCap time.Duration
	// Jitter in [0,1] randomises each pause within ±Jitter·pause,
	// decorrelating retry storms across a swarm of clients. Seed makes
	// the draws reproducible (0: wall-clock seed).
	Jitter float64
	Seed   int64
	// CallTimeout bounds each individual attempt (0: only the caller's
	// ctx bounds it). An attempt cut by it while the caller's ctx still
	// has budget counts as a transport failure and is re-attempted.
	CallTimeout time.Duration
	// Idempotent, when non-empty, turns the idempotency guard on: only
	// the listed methods are re-attempted after a transport failure that
	// may have reached the server. Failures before anything was sent (an
	// endpoint that could not be built) stay retryable for every method.
	// Empty means every routed method is idempotent — the failover
	// contract.
	Idempotent []string
	// Breaker sheds load per endpoint after consecutive transport
	// failures (zero value: off).
	Breaker BreakerConfig
	// HeartbeatInterval enables liveness pings on every built transport
	// (0: off). A ping unanswered for 3 intervals — the controller marks
	// devices failed after 3 missed beats, §4.6 — tears the transport
	// down so the next call rebuilds it.
	HeartbeatInterval time.Duration
	// Observer, when non-nil, brackets every attempt's call on whatever
	// transport the endpoint built, to time each RPC hop.
	Observer CallObserver
	// Budget, when non-nil, bounds retry amplification: re-attempts after
	// transport failures withdraw one token each (leader redirects stay
	// free — they are routing, not retry), successes deposit the earn
	// ratio. Share one budget across every retry layer of a process
	// (this client, gateway respawns) so stacked layers cannot multiply
	// attempts during an outage.
	Budget *RetryBudget
}

// backoff returns the pause before re-attempt n (0-based), drawing
// jitter from rng (nil: no jitter, fully deterministic).
func (o *FailoverOptions) backoff(n int, rng *rand.Rand) time.Duration {
	d := o.RetryBackoff
	for ; n > 0 && d < o.BackoffCap; n-- {
		if d *= 2; d > o.BackoffCap {
			d = o.BackoffCap
		}
	}
	if o.Jitter > 0 && rng != nil {
		d = time.Duration(float64(d) * (1 + o.Jitter*(2*rng.Float64()-1)))
	}
	return d
}

// FailoverStats counts the hardened caller's recovery actions.
type FailoverStats struct {
	// Retries counts re-attempts after transport failures.
	Retries uint64
	// Reconnects counts endpoint transports rebuilt after turning
	// unhealthy.
	Reconnects uint64
	// Rejected counts calls shed by an open breaker.
	Rejected uint64
	// Shed counts server-side shed responses (rpc.IsShed): the server
	// refused the work to protect its SLO. Not a failure — the breaker
	// does not count it — and never retried in the same call.
	Shed uint64
	// BudgetDenied counts retries the shared RetryBudget refused.
	BudgetDenied uint64
}

// FailoverClient is the one hardened caller over Transport: it routes
// calls to the current primary of a replicated service (e.g. the
// ReplicatedController's fronting gateways). Standbys answer
// primary-only methods with NotLeaderError; the client follows the
// redirect, and on transport failures it sweeps the remaining endpoints
// until one serves — the edge-side half of the §4.7 hot-standby
// takeover. One endpoint is the degenerate case: a reconnecting client
// with per-attempt deadlines, retry with backoff and jitter, idempotency
// guards, heartbeat-driven rebuild and a circuit breaker, the machinery
// the live substrate needs to survive the failure modes internal/faas
// only simulates. Calls may execute more than once across a failover,
// so routed methods must be idempotent unless Idempotent says otherwise
// (the checkpointed chain path deduplicates by task id). It is safe for
// concurrent use.
type FailoverClient struct {
	opts   FailoverOptions
	eps    []endpoint
	idem   map[string]bool // nil: the idempotency guard is off
	cur    atomic.Int32    // endpoint index calls currently route to
	closed atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand // nil unless Jitter > 0

	retries, reconnects, rejected, shed, budgetDenied atomic.Uint64
}

// endpoint is one replica's redial state: the transport it last built,
// rebuilt through build whenever that turns unhealthy.
type endpoint struct {
	build   func() (Transport, error)
	breaker *Breaker
	// gate admits one builder at a time, so a hung factory parks only
	// this endpoint's callers — each still free to leave on its ctx —
	// while Leader, Close and the other endpoints proceed.
	gate chan struct{}
	live atomic.Pointer[liveTransport]
	// builds counts finished factory runs; buildErr (gate holder only) is
	// the last one's failure, nil after a success.
	builds   atomic.Uint64
	buildErr error
}

// liveTransport is a built transport plus the heartbeat watching it.
// Whoever removes it from its endpoint calls shut, exactly once.
type liveTransport struct {
	Transport
	stopBeat context.CancelFunc // nil without a heartbeat
	beatDone chan struct{}      // closed when the heartbeat goroutine exits
}

func (lt *liveTransport) shut() {
	if lt.stopBeat != nil {
		lt.stopBeat()
	}
	lt.Transport.Close()
	if lt.beatDone != nil {
		<-lt.beatDone
	}
}

// NewFailover builds the hardened caller over one transport factory per
// replica (the slice index is the replica id redirects refer to). A
// factory is invoked lazily on first use and again whenever its
// previous transport reports unhealthy — the redirect-following,
// endpoint-sweeping and retry-budget logic is identical regardless of
// what the calls ride, so the zero-copy fast paths (runtime.Linker's
// shm ring for co-located leaders, mux streams for remote ones) plug in
// without their own failover layer.
func NewFailover(endpoints []func() (Transport, error), opts FailoverOptions) *FailoverClient {
	if len(endpoints) == 0 {
		panic("rpc: failover client needs at least one endpoint")
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 4 * len(endpoints)
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 25 * time.Millisecond
	}
	f := &FailoverClient{opts: opts, eps: make([]endpoint, len(endpoints))}
	for i, build := range endpoints {
		f.eps[i] = endpoint{build: build, breaker: NewBreaker(opts.Breaker, nil), gate: make(chan struct{}, 1)}
	}
	if len(opts.Idempotent) > 0 {
		f.idem = make(map[string]bool, len(opts.Idempotent))
		for _, m := range opts.Idempotent {
			f.idem[m] = true
		}
	}
	if opts.Jitter > 0 {
		seed := opts.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		f.rng = rand.New(rand.NewSource(seed))
	}
	return f
}

// ConnEndpoint adapts a dial function to an endpoint factory: every
// (re)build dials a fresh connection and wraps it in a framed Client
// with the given caller pool.
func ConnEndpoint(dial func() (net.Conn, error), callers int) func() (Transport, error) {
	return func() (Transport, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return NewClient(conn, callers), nil
	}
}

// DialFailover builds the hardened caller over TCP addresses, one
// framed connection per endpoint.
func DialFailover(addrs []string, opts FailoverOptions) *FailoverClient {
	if opts.Callers <= 0 {
		opts.Callers = 8
	}
	endpoints := make([]func() (Transport, error), len(addrs))
	for i, addr := range addrs {
		addr := addr
		endpoints[i] = ConnEndpoint(func() (net.Conn, error) { return net.Dial("tcp", addr) }, opts.Callers)
	}
	return NewFailover(endpoints, opts)
}

// Leader returns the endpoint index calls currently route to.
func (f *FailoverClient) Leader() int { return int(f.cur.Load()) }

// Endpoint returns the transport endpoint idx currently holds (nil
// before its first build) — e.g. the *runtime.Link whose Kind says
// which fast path the endpoint rides.
func (f *FailoverClient) Endpoint(idx int) Transport {
	if lt := f.eps[idx].live.Load(); lt != nil {
		return lt.Transport
	}
	return nil
}

// Breaker exposes endpoint idx's circuit breaker (for observability).
func (f *FailoverClient) Breaker(idx int) *Breaker { return f.eps[idx].breaker }

// Stats returns a snapshot of the recovery counters.
func (f *FailoverClient) Stats() FailoverStats {
	return FailoverStats{
		Retries:      f.retries.Load(),
		Reconnects:   f.reconnects.Load(),
		Rejected:     f.rejected.Load(),
		Shed:         f.shed.Load(),
		BudgetDenied: f.budgetDenied.Load(),
	}
}

// transport returns ep's healthy transport, rebuilding it through the
// endpoint's factory if needed — the client's one redial site.
func (f *FailoverClient) transport(ctx context.Context, ep *endpoint) (Transport, error) {
	if lt := ep.live.Load(); lt != nil && lt.Healthy() {
		return lt.Transport, nil
	}
	seen := ep.builds.Load()
	select {
	case ep.gate <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-ep.gate }()
	old := ep.live.Load()
	if old != nil && old.Healthy() {
		return old.Transport, nil // rebuilt while this caller waited at the gate
	}
	if ep.builds.Load() != seen && ep.buildErr != nil {
		// A build failed while this caller waited for its verdict: the
		// verdict is this caller's too. N callers parked on a dead endpoint
		// cost one dial, not a storm of N.
		return nil, ep.buildErr
	}
	if f.closed.Load() {
		return nil, ErrClosed
	}
	tr, err := ep.build()
	if err != nil {
		err = fmt.Errorf("rpc: endpoint unreachable: %w", err)
	}
	ep.buildErr = err
	ep.builds.Add(1)
	if err != nil {
		return nil, err
	}
	lt := &liveTransport{Transport: tr}
	if f.opts.HeartbeatInterval > 0 {
		var beat context.Context
		beat, lt.stopBeat = context.WithCancel(context.Background())
		lt.beatDone = make(chan struct{})
		go f.heartbeat(beat, lt)
	}
	// The swap fails only when Close emptied the slot while the factory
	// ran; Close then owns old, and lt was never visible.
	installed := ep.live.CompareAndSwap(old, lt)
	if installed && old != nil {
		old.shut()
		f.reconnects.Add(1)
	}
	if f.closed.Load() {
		// Close raced the build: whichever side still finds lt in the
		// slot (or never put it there) tears it down.
		if !installed || ep.live.CompareAndSwap(lt, nil) {
			lt.shut()
		}
		return nil, ErrClosed
	}
	return tr, nil
}

// heartbeat pings lt until it dies or is shut; a missed beat tears the
// transport down so the next call rebuilds it.
func (f *FailoverClient) heartbeat(ctx context.Context, lt *liveTransport) {
	defer close(lt.beatDone)
	t := time.NewTicker(f.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		pctx, cancel := context.WithTimeout(ctx, 3*f.opts.HeartbeatInterval)
		err := lt.Ping(pctx)
		cancel()
		if err != nil {
			if ctx.Err() == nil {
				lt.Transport.Close() // missed beat: declare the transport dead
			}
			return
		}
	}
}

// route updates the believed leader: an explicit redirect target wins,
// otherwise advance past the failed endpoint round-robin.
func (f *FailoverClient) route(from, target int) {
	if target >= 0 && target < len(f.eps) {
		f.cur.Store(int32(target))
		return
	}
	f.cur.CompareAndSwap(int32(from), int32((from+1)%len(f.eps)))
}

// Call routes one call to the current primary. Each attempt's outcome
// is classified once:
//
//   - redirect or fenced: the real primary is elsewhere — re-route
//     without spending retry budget (routing, not retry);
//   - shed, expired deadline or any other ServerError: the primary is
//     alive and answered — return it (sweeping to a standby would only
//     re-offer load the fleet just shed);
//   - the caller's ctx fired: stop;
//   - the endpoint's breaker is open: fail fast with ErrCircuitOpen;
//   - anything else is a transport failure: sweep to the next endpoint
//     and re-attempt under the shared RetryBudget, unless the
//     idempotency guard says the request may already have executed.
//
// ctx bounds the whole call including backoffs.
func (f *FailoverClient) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < f.opts.Attempts; attempt++ {
		if f.closed.Load() {
			return nil, ErrClosed
		}
		if attempt > 0 {
			t := time.NewTimer(f.pause(attempt - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, ctxStopped(err, lastErr)
		}
		idx := f.Leader()
		ep := &f.eps[idx]
		if err := ep.breaker.Allow(); err != nil {
			f.rejected.Add(1)
			f.route(idx, -1)
			return nil, err
		}
		out, sent, err := f.attempt(ctx, ep, method, payload)
		if err == nil {
			ep.breaker.Record(true)
			f.opts.Budget.Success()
			return out, nil
		}
		lastErr = err
		var se ServerError
		target, redirected := RedirectTarget(err)
		switch {
		case redirected:
			ep.breaker.Record(true)
			f.route(idx, target)
			continue
		case IsFenced(err):
			// A deposed primary's store rejected the term-stamped write.
			ep.breaker.Record(true)
			f.route(idx, -1)
			continue
		case IsShed(err):
			// The server shed the request to protect its SLO: it never
			// executed, and the server is alive — an overload signal, not
			// a health signal. The breaker must not count it as a failure
			// (a shedding server would otherwise trip breakers fleet-wide
			// and turn recovery into a thundering herd), and retrying
			// inside this call would amplify the very overload being
			// shed; the retry-after hint is for the caller's next offer.
			ep.breaker.Drop()
			f.shed.Add(1)
			return nil, err
		case errors.As(err, &se):
			// The handler executed and replied: the endpoint is healthy,
			// even though the application call failed.
			ep.breaker.Record(true)
			return nil, err
		case ctx.Err() != nil:
			// A caller-side cancellation says nothing about server health.
			ep.breaker.Drop()
			return nil, ctxStopped(ctx.Err(), err)
		}
		ep.breaker.Record(false)
		f.route(idx, -1)
		if sent && f.idem != nil && !f.idem[method] {
			return nil, err
		}
		if attempt+1 == f.opts.Attempts {
			break
		}
		if !f.opts.Budget.Withdraw() {
			f.budgetDenied.Add(1)
			return nil, budgetExhausted(err)
		}
		f.retries.Add(1)
	}
	return nil, fmt.Errorf("rpc: no endpoint served %s after %d attempts: %w", method, f.opts.Attempts, lastErr)
}

// ctxStopped reports the caller's ctx error, keeping the last attempt's
// error for diagnosis.
func ctxStopped(cause, last error) error {
	switch {
	case last == nil:
		return cause
	case errors.Is(last, cause):
		return last
	}
	return fmt.Errorf("%w (last attempt: %v)", cause, last)
}

// pause draws the backoff before re-attempt n.
func (f *FailoverClient) pause(n int) time.Duration {
	if f.rng == nil {
		return f.opts.backoff(n, nil)
	}
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return f.opts.backoff(n, f.rng)
}

// attempt runs one try on ep's current (or a fresh) transport. sent is
// false when no transport could be had, so nothing reached a server. A
// per-attempt timeout that fires while the caller's ctx still has
// budget is reported as a plain transport error so the loop can
// re-attempt it.
func (f *FailoverClient) attempt(parent context.Context, ep *endpoint, method string, payload []byte) (out []byte, sent bool, err error) {
	tr, err := f.transport(parent, ep)
	if err != nil {
		return nil, false, err
	}
	ctx := parent
	if f.opts.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, f.opts.CallTimeout)
		defer cancel()
	}
	var observed func(error)
	if f.opts.Observer != nil {
		observed = f.opts.Observer(method, payload)
	}
	out, err = tr.Call(ctx, method, payload)
	if observed != nil {
		observed(err)
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil {
		err = fmt.Errorf("rpc: attempt timed out: %v", err)
	}
	return out, true, err
}

// Close shuts the client: every endpoint transport is torn down and
// later calls return ErrClosed without invoking a factory.
func (f *FailoverClient) Close() {
	f.closed.Store(true)
	for i := range f.eps {
		if lt := f.eps[i].live.Swap(nil); lt != nil {
			lt.shut()
		}
	}
}
