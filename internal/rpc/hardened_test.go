package rpc

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- backoff schedule ---

func TestBackoffGrowsExponentiallyAndCaps(t *testing.T) {
	p := FailoverOptions{RetryBackoff: 10 * time.Millisecond, BackoffCap: 45 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 45, 45}
	for i, w := range want {
		if got := p.backoff(i, nil); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterStaysBounded(t *testing.T) {
	p := FailoverOptions{RetryBackoff: 100 * time.Millisecond, Jitter: 0.5}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		d := p.backoff(0, rng)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered backoff %v outside ±50%% of base", d)
		}
	}
}

// The zero-valued schedule (no cap, no jitter) is the fixed pause the
// leader-following client always had.
func TestBackoffWithoutCapIsFixed(t *testing.T) {
	p := FailoverOptions{RetryBackoff: 7 * time.Millisecond}
	for i := 0; i < 6; i++ {
		if got := p.backoff(i, nil); got != 7*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want the fixed 7ms", i, got)
		}
	}
}

// --- Breaker ---

func TestBreakerOpensAfterThresholdAndRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second}, clock)

	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2 failures = %v", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatal("third call rejected while closed")
	}
	b.Record(false) // trips
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("state = %v opens = %d, want open/1", b.State(), b.Opens())
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}

	now = now.Add(time.Second) // cooldown elapses -> half-open probe
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatal("half-open breaker rejected the probe")
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Record(true) // probe succeeds -> closed
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatal("recovered breaker rejected a call")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second}, func() time.Time { return now })
	b.Allow()
	b.Record(false)
	now = now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal("probe rejected")
	}
	b.Record(false)
	if b.State() != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("failed probe: state = %v opens = %d", b.State(), b.Opens())
	}
}

func TestBreakerDropReleasesProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second}, func() time.Time { return now })
	b.Allow()
	b.Record(false)
	now = now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal("probe rejected")
	}
	b.Drop() // cancelled probe must not wedge the breaker
	if err := b.Allow(); err != nil {
		t.Fatal("breaker wedged after a dropped probe")
	}
}

func TestZeroBreakerAlwaysAllows(t *testing.T) {
	b := NewBreaker(BreakerConfig{}, nil)
	for i := 0; i < 10; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal("disabled breaker rejected a call")
		}
		b.Record(false)
	}
}

// --- FailoverClient over one endpoint: the reconnecting client ---

// flakyDialer yields connections that die after serving `failFirst`
// dials, then healthy ones, all against the same server.
type flakyDialer struct {
	srv       *Server
	mu        sync.Mutex
	dials     int
	failFirst int // these many initial dials yield pre-closed conns
}

func (d *flakyDialer) dial() (net.Conn, error) {
	d.mu.Lock()
	n := d.dials
	d.dials++
	d.mu.Unlock()
	cc, sc := Pair()
	if n < d.failFirst {
		cc.Close()
		sc.Close()
		return cc, nil
	}
	d.srv.ServeConn(sc)
	return cc, nil
}

// hardenedOpts turns everything on: 4 retries on a growing backoff, the
// idempotency guard (only the listed methods replay), and a breaker.
func hardenedOpts(idempotent ...string) FailoverOptions {
	return FailoverOptions{
		Attempts:     5,
		RetryBackoff: time.Millisecond,
		BackoffCap:   5 * time.Millisecond,
		Idempotent:   append([]string{"some-other-method"}, idempotent...),
		Breaker:      BreakerConfig{Threshold: 10, Cooldown: 50 * time.Millisecond},
		Seed:         1,
		CallTimeout:  2 * time.Second,
	}
}

// oneEndpoint builds the degenerate one-replica client over a dial
// function.
func oneEndpoint(dial func() (net.Conn, error), opts FailoverOptions) *FailoverClient {
	return NewFailover([]func() (Transport, error){ConnEndpoint(dial, 8)}, opts)
}

func TestFailoverRetriesDeadConnections(t *testing.T) {
	srv := echoServer()
	defer srv.Close()
	d := &flakyDialer{srv: srv, failFirst: 2}
	rc := oneEndpoint(d.dial, hardenedOpts("echo"))
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := rc.Call(ctx, "echo", []byte("survives"))
	if err != nil {
		t.Fatalf("call over flaky dialer = %v", err)
	}
	if string(out) != "survives" {
		t.Fatalf("out = %q", out)
	}
	if st := rc.Stats(); st.Retries == 0 {
		t.Fatalf("no retries recorded: %+v", st)
	}
}

func TestFailoverServerErrorNotRetried(t *testing.T) {
	srv := echoServer() // "fail" handler always errors
	defer srv.Close()
	d := &flakyDialer{srv: srv}
	rc := oneEndpoint(d.dial, hardenedOpts("fail"))
	defer rc.Close()

	_, err := rc.Call(context.Background(), "fail", nil)
	var se ServerError
	if !errors.As(err, &se) || err.Error() != "boom" {
		t.Fatalf("err = %v, want ServerError boom", err)
	}
	if st := rc.Stats(); st.Retries != 0 {
		t.Fatalf("application error was retried: %+v", st)
	}
}

func TestFailoverNonIdempotentNotRetried(t *testing.T) {
	srv := echoServer()
	defer srv.Close()
	d := &flakyDialer{srv: srv, failFirst: 1}
	rc := oneEndpoint(d.dial, hardenedOpts())
	defer rc.Close()
	// The guard is on and "echo" is not listed: the dead-connection
	// failure must surface instead of being replayed.
	if _, err := rc.Call(context.Background(), "echo", []byte("x")); err == nil {
		t.Fatal("non-idempotent transport failure was silently retried")
	}
	if st := rc.Stats(); st.Retries != 0 {
		t.Fatalf("retries = %d, want 0", st.Retries)
	}
}

func TestFailoverBreakerShedsAndRecovers(t *testing.T) {
	srv := echoServer()
	defer srv.Close()
	d := &flakyDialer{srv: srv, failFirst: 1 << 30} // every dial dead for now
	opts := hardenedOpts()
	opts.Attempts = 1 // isolate the breaker from retries
	opts.Breaker = BreakerConfig{Threshold: 3, Cooldown: 40 * time.Millisecond}
	rc := oneEndpoint(d.dial, opts)
	defer rc.Close()

	for i := 0; i < 3; i++ {
		if _, err := rc.Call(context.Background(), "echo", nil); err == nil {
			t.Fatal("call on dead transport succeeded")
		}
	}
	if rc.Breaker(0).State() != BreakerOpen {
		t.Fatalf("breaker state = %v after 3 consecutive failures", rc.Breaker(0).State())
	}
	if _, err := rc.Call(context.Background(), "echo", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker did not shed: %v", err)
	}
	if rc.Stats().Rejected == 0 {
		t.Fatal("rejected counter not bumped")
	}

	// Server heals; after the cooldown a half-open probe closes it.
	d.mu.Lock()
	d.failFirst = 0
	d.mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	out, err := rc.Call(context.Background(), "echo", []byte("probe"))
	if err != nil || string(out) != "probe" {
		t.Fatalf("half-open probe failed: %q %v", out, err)
	}
	if rc.Breaker(0).State() != BreakerClosed {
		t.Fatalf("breaker did not close after successful probe: %v", rc.Breaker(0).State())
	}
}

func TestFailoverHeartbeatTriggersReconnect(t *testing.T) {
	srv := echoServer()
	defer srv.Close()

	var conns []net.Conn
	var mu sync.Mutex
	dial := func() (net.Conn, error) {
		cc, sc := Pair()
		srv.ServeConn(sc)
		mu.Lock()
		conns = append(conns, cc)
		mu.Unlock()
		return cc, nil
	}
	opts := hardenedOpts("echo")
	opts.HeartbeatInterval = 10 * time.Millisecond // a beat is missed after 30ms
	rc := oneEndpoint(dial, opts)
	defer rc.Close()

	if _, err := rc.Call(context.Background(), "echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Sever the first connection out from under the client; the
	// heartbeat (or the next call) must notice and redial.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := rc.Call(context.Background(), "echo", []byte("b")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after severed connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	n := len(conns)
	mu.Unlock()
	if n < 2 {
		t.Fatalf("dials = %d, want a reconnect", n)
	}
}

func TestFailoverCallTimeoutRetriesWithinDeadline(t *testing.T) {
	// First invocation hangs; the per-attempt timeout cuts it and the
	// retry succeeds — the (a) acceptance behaviour at the unit level.
	var calls atomic.Int32
	srv := NewServer()
	srv.RegisterCtx("sometimes", func(ctx context.Context, p []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return []byte("ok"), nil
	})
	defer srv.Close()
	d := &flakyDialer{srv: srv}
	opts := hardenedOpts("sometimes")
	opts.CallTimeout = 30 * time.Millisecond
	rc := oneEndpoint(d.dial, opts)
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := rc.Call(ctx, "sometimes", nil)
	if err != nil || string(out) != "ok" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	if rc.Stats().Retries == 0 {
		t.Fatal("timed-out attempt was not retried")
	}
}

func TestFailoverRespectsCallerDeadline(t *testing.T) {
	srv := NewServer()
	srv.RegisterCtx("hang", func(ctx context.Context, p []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	defer srv.Close()
	d := &flakyDialer{srv: srv}
	opts := hardenedOpts("hang")
	opts.CallTimeout = 0
	rc := oneEndpoint(d.dial, opts)
	defer rc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rc.Call(ctx, "hang", nil)
	if err == nil {
		t.Fatal("hung call returned")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("caller deadline not honoured promptly")
	}
}
