package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
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

// FailoverOptions tunes the hardened caller. The zero value is the plain
// leader-following client with a fixed 25 ms pause between attempts.
type FailoverOptions struct {
	// Attempts bounds call attempts across endpoints and sweeps, the
	// first one included (<=0: 4 × the endpoint count; 1: never retry).
	Attempts int
	// RetryBackoff is the pause before re-attempting after a redirect or
	// a transport failure — an election may still be settling
	// (<=0: 25 ms).
	RetryBackoff time.Duration
	// CallTimeout bounds each individual attempt (0: only the caller's
	// ctx bounds it). An attempt cut by it while the caller's ctx still
	// has budget counts as a transport failure and is re-attempted.
	CallTimeout time.Duration
	// Observer, when non-nil, brackets every attempt's call on whatever
	// transport the endpoint built, to time each RPC hop.
	Observer CallObserver
}

// FailoverClient is the one hardened caller over Transport: it routes
// calls to the current primary of a replicated service (e.g. the
// ReplicatedController's fronting gateways). Standbys answer
// primary-only methods with NotLeaderError; the client follows the
// redirect, and on transport failures it sweeps the remaining endpoints
// until one serves — the edge-side half of the §4.7 hot-standby
// takeover. One endpoint is the degenerate case: a reconnecting client
// with per-attempt deadlines and bounded retry, the machinery the live
// substrate needs to survive the failure modes internal/faas only
// simulates. Calls may execute more than once across a failover, so
// routed methods must be idempotent (the checkpointed chain path
// deduplicates by task id). It is safe for concurrent use.
type FailoverClient struct {
	opts   FailoverOptions
	eps    []endpoint
	cur    atomic.Int32 // endpoint index calls currently route to
	closed atomic.Bool
}

// endpoint is one replica's redial state: the transport it last built,
// rebuilt through build whenever that turns unhealthy.
type endpoint struct {
	build func() (Transport, error)
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

// liveTransport holds a built transport so the endpoint can swap it
// atomically. Whoever removes it from its endpoint closes it, exactly
// once.
type liveTransport struct{ Transport }

// NewFailover builds the hardened caller over one transport factory per
// replica (the slice index is the replica id redirects refer to). A
// factory is invoked lazily on first use and again whenever its
// previous transport reports unhealthy — the redirect-following and
// endpoint-sweeping logic is identical regardless of what the calls
// ride, so the zero-copy fast paths (runtime.Linker's shm ring for
// co-located leaders, framed TCP connections for remote ones) plug in
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
		f.eps[i] = endpoint{build: build, gate: make(chan struct{}, 1)}
	}
	return f
}

// ConnEndpoint adapts a dial function to an endpoint factory: every
// (re)build dials a fresh connection and returns its Client, whose
// default stream has a caller pool of callers (<=0: 8). Closing the
// endpoint closes the socket; a full server queue sheds its overflow
// with ShedError instead of blocking.
func ConnEndpoint(dial func() (net.Conn, error), callers int) func() (Transport, error) {
	if callers <= 0 {
		callers = 8
	}
	return func() (Transport, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return NewClient(conn, callers), nil
	}
}

// DialFailover builds the hardened caller over TCP addresses, one
// ConnEndpoint connection (8 callers) per endpoint.
func DialFailover(addrs []string, opts FailoverOptions) *FailoverClient {
	endpoints := make([]func() (Transport, error), len(addrs))
	for i, addr := range addrs {
		addr := addr
		endpoints[i] = ConnEndpoint(func() (net.Conn, error) { return net.Dial("tcp", addr) }, 0)
	}
	return NewFailover(endpoints, opts)
}

// Leader returns the endpoint index calls currently route to.
func (f *FailoverClient) Leader() int { return int(f.cur.Load()) }

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
	lt := &liveTransport{tr}
	// The swap fails only when Close emptied the slot while the factory
	// ran; Close then owns old, and lt was never visible.
	installed := ep.live.CompareAndSwap(old, lt)
	if installed && old != nil {
		old.Close()
	}
	if f.closed.Load() {
		// Close raced the build: whichever side still finds lt in the
		// slot (or never put it there) tears it down.
		if !installed || ep.live.CompareAndSwap(lt, nil) {
			lt.Close()
		}
		return nil, ErrClosed
	}
	return tr, nil
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
//   - redirect or fenced: the real primary is elsewhere — re-route;
//   - shed, expired deadline or any other ServerError: the primary is
//     alive and answered — return it (sweeping to a standby would only
//     re-offer load the fleet just shed);
//   - the caller's ctx fired: stop;
//   - anything else is a transport failure: sweep to the next endpoint
//     and re-attempt.
//
// Attempts bounds the attempts of one call; ctx bounds the whole call
// including the pauses between them.
func (f *FailoverClient) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < f.opts.Attempts; attempt++ {
		if f.closed.Load() {
			return nil, ErrClosed
		}
		if attempt > 0 {
			t := time.NewTimer(f.opts.RetryBackoff)
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
		out, err := f.attempt(ctx, &f.eps[idx], method, payload)
		if err == nil {
			return out, nil
		}
		lastErr = err
		var se ServerError
		target, redirected := RedirectTarget(err)
		switch {
		case redirected:
			f.route(idx, target)
			continue
		case IsFenced(err):
			// A deposed primary's store rejected the term-stamped write.
			f.route(idx, -1)
			continue
		case IsShed(err):
			// The server shed the request to protect its SLO: it never
			// executed, and the server is alive. Retrying inside this call
			// would amplify the very overload being shed; the retry-after
			// hint is for the caller's next offer.
			return nil, err
		case errors.As(err, &se):
			// The handler executed and replied: the endpoint is healthy,
			// even though the application call failed.
			return nil, err
		case ctx.Err() != nil:
			return nil, ctxStopped(ctx.Err(), err)
		}
		f.route(idx, -1)
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

// attempt runs one try on ep's current (or a fresh) transport. A
// per-attempt timeout that fires while the caller's ctx still has
// budget is reported as a plain transport error so the loop can
// re-attempt it.
func (f *FailoverClient) attempt(parent context.Context, ep *endpoint, method string, payload []byte) ([]byte, error) {
	tr, err := f.transport(parent, ep)
	if err != nil {
		return nil, err
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
	out, err := tr.Call(ctx, method, payload)
	if observed != nil {
		observed(err)
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil {
		err = fmt.Errorf("rpc: attempt timed out: %v", err)
	}
	return out, err
}

// Close shuts the client: every endpoint transport is torn down and
// later calls return ErrClosed without invoking a factory.
func (f *FailoverClient) Close() {
	f.closed.Store(true)
	for i := range f.eps {
		if lt := f.eps[i].live.Swap(nil); lt != nil {
			lt.Close()
		}
	}
}
