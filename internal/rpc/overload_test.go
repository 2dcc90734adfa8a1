package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- shed / deadline error wire round-trips -------------------------

func TestShedErrorRoundTrip(t *testing.T) {
	err := ShedError(40 * time.Millisecond)
	if !IsShed(err) {
		t.Fatal("ShedError not recognised by IsShed")
	}
	ra, ok := ShedRetryAfter(err)
	if !ok || ra != 40*time.Millisecond {
		t.Fatalf("retry-after = %v, %v", ra, ok)
	}
	// Across the wire a handler error arrives as ServerError(err.Error()).
	wire := ServerError(err.Error())
	if !IsShed(wire) {
		t.Fatal("shed error lost its identity across the wire")
	}
	if ra, ok := ShedRetryAfter(wire); !ok || ra != 40*time.Millisecond {
		t.Fatalf("wire retry-after = %v, %v", ra, ok)
	}
	if IsShed(errors.New("rpc: something else")) {
		t.Fatal("IsShed matched an unrelated error")
	}
}

func TestDeadlineExceededErrorRoundTrip(t *testing.T) {
	err := &DeadlineExceededError{Late: 12 * time.Millisecond}
	if !IsDeadlineExceeded(err) {
		t.Fatal("typed deadline error not recognised")
	}
	wire := ServerError(err.Error())
	if !IsDeadlineExceeded(wire) {
		t.Fatal("deadline error lost its identity across the wire")
	}
	if !IsDeadlineExceeded(context.DeadlineExceeded) {
		t.Fatal("context.DeadlineExceeded not recognised")
	}
	if !IsDeadlineExceeded(fmt.Errorf("wrapped: %w", context.DeadlineExceeded)) {
		t.Fatal("wrapped context.DeadlineExceeded not recognised")
	}
	if IsDeadlineExceeded(ShedError(time.Millisecond)) {
		t.Fatal("shed classified as deadline exceeded")
	}
}

// --- retry budget ----------------------------------------------------

func TestRetryBudgetEarnAndSpend(t *testing.T) {
	b := NewRetryBudget(0.5, 4) // starts full at 4
	for i := 0; i < 4; i++ {
		if !b.Withdraw() {
			t.Fatalf("withdraw %d refused from a full budget", i)
		}
	}
	if b.Withdraw() {
		t.Fatal("withdraw granted from an empty budget")
	}
	b.Success()
	b.Success() // earns 2 × 0.5 = 1 token
	if !b.Withdraw() {
		t.Fatal("earned token not withdrawable")
	}
	if b.Withdraw() {
		t.Fatal("budget granted more than it earned")
	}
}

func TestRetryBudgetNilIsUnlimited(t *testing.T) {
	var b *RetryBudget
	b.Success() // must not panic
	for i := 0; i < 100; i++ {
		if !b.Withdraw() {
			t.Fatal("nil budget refused a withdraw")
		}
	}
	if b.Tokens() != 0 {
		t.Fatalf("nil budget tokens = %v", b.Tokens())
	}
}

func TestRetryBudgetCapsAtMax(t *testing.T) {
	b := NewRetryBudget(1.0, 2)
	for i := 0; i < 50; i++ {
		b.Success()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens = %v, want capped at 2", got)
	}
}

// TestRetryBudgetConcurrent hammers one budget from many goroutines
// (the shape the -race lane watches) and checks conservation: grants
// can never exceed the initial fill plus what successes earned.
func TestRetryBudgetConcurrent(t *testing.T) {
	const (
		goroutines = 16
		iterations = 500
		ratio      = 0.1
		max        = 64.0
	)
	b := NewRetryBudget(ratio, max)
	var granted, successes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if i%3 == 0 {
					b.Success()
					successes.Add(1)
				}
				if b.Withdraw() {
					granted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	earned := max + ratio*float64(successes.Load())
	if float64(granted.Load()) > earned+1 { // +1: fractional carry
		t.Fatalf("granted %d withdraws from a budget that earned %.1f", granted.Load(), earned)
	}
	if tok := b.Tokens(); tok < 0 || tok > max {
		t.Fatalf("tokens = %v, want within [0, %v]", tok, max)
	}
}

// --- breaker half-open probe exclusion -------------------------------

// testClock is a goroutine-safe fake clock for breaker tests.
type testClock struct{ ns atomic.Int64 }

func (c *testClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestBreakerHalfOpenAdmitsExactlyOneProbe opens a breaker, crosses the
// cooldown, and races many callers at the half-open state: exactly one
// probe may pass per resolution, under -race.
func TestBreakerHalfOpenAdmitsExactlyOneProbe(t *testing.T) {
	clk := &testClock{}
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second}, clk.now)
	for round := 0; round < 20; round++ {
		b.Record(false) // trip open
		if b.State() != BreakerOpen {
			t.Fatalf("round %d: state = %v, want open", round, b.State())
		}
		clk.advance(2 * time.Second)
		var admitted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if b.Allow() == nil {
					admitted.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := admitted.Load(); n != 1 {
			t.Fatalf("round %d: %d probes admitted in half-open, want exactly 1", round, n)
		}
		// Resolve the probe: success closes, then re-trip for the next
		// round; alternate with Drop to cover the release path.
		if round%2 == 0 {
			b.Record(true)
			if b.State() != BreakerClosed {
				t.Fatalf("round %d: probe success left state %v", round, b.State())
			}
		} else {
			b.Drop() // probe abandoned: slot must free without closing
			var again atomic.Int64
			var wg2 sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg2.Add(1)
				go func() {
					defer wg2.Done()
					if b.Allow() == nil {
						again.Add(1)
					}
				}()
			}
			wg2.Wait()
			if n := again.Load(); n != 1 {
				t.Fatalf("round %d: dropped probe freed %d slots, want 1", round, n)
			}
			b.Record(true)
		}
	}
}

// TestBreakerHalfOpenFailureReopens checks a failed probe re-opens the
// breaker and re-arms the cooldown.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := &testClock{}
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second}, clk.now)
	b.Record(false)
	clk.advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	b.Record(false) // probe failed
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("re-opened breaker admitted a call: %v", err)
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

// --- wire deadline propagation ---------------------------------------

// TestWireDeadlinePropagation checks a client ctx deadline crosses the
// wire and is visible to the server handler's context.
func TestWireDeadlinePropagation(t *testing.T) {
	srv := NewServer()
	got := make(chan time.Time, 1)
	srv.RegisterCtx("m", func(ctx context.Context, in []byte) ([]byte, error) {
		d, ok := ctx.Deadline()
		if !ok {
			d = time.Time{}
		}
		got <- d
		return in, nil
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	cl := NewClient(cc, 4)
	defer cl.Close()
	defer srv.Close()

	want := time.Now().Add(5 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	if _, err := cl.Call(ctx, "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	d := <-got
	if d.IsZero() {
		t.Fatal("deadline did not propagate to the server handler")
	}
	if diff := d.Sub(want); diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("propagated deadline off by %v", diff)
	}

	// A deadline-free call must not grow one on the way over.
	if _, err := cl.Call(context.Background(), "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := <-got; !d.IsZero() {
		t.Fatalf("deadline-free call arrived with deadline %v", d)
	}
}

// TestServerDropsExpiredQueuedWork wedges a one-worker server pool and
// checks that a request whose wire deadline expires while queued is
// answered with DeadlineExceededError without ever executing.
func TestServerDropsExpiredQueuedWork(t *testing.T) {
	srv := NewServer()
	srv.SetWorkers(1)
	started := make(chan struct{})
	release := make(chan struct{})
	var executed atomic.Int64
	srv.RegisterCtx("slow", func(ctx context.Context, in []byte) ([]byte, error) {
		close(started)
		<-release
		return in, nil
	})
	srv.RegisterCtx("doomed", func(ctx context.Context, in []byte) ([]byte, error) {
		executed.Add(1)
		return in, nil
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	cl := NewClient(cc, 4)
	defer cl.Close()
	defer srv.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := cl.Call(context.Background(), "slow", []byte("x"))
		slowDone <- err
	}()
	<-started // the single worker is now wedged
	// Queue the doomed request behind it with a deadline that expires
	// while it waits. The client's own timer fires at the same instant,
	// so the caller sees its local deadline; the server-side proof is
	// that the handler never ran and DroppedExpired counted the drop.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(50*time.Millisecond))
	defer dcancel()
	_, err := cl.Call(dctx, "doomed", []byte("x"))
	if err == nil {
		t.Fatal("expired queued call succeeded")
	}
	if !IsDeadlineExceeded(err) {
		t.Fatalf("expired queued call error = %v, want deadline exceeded", err)
	}

	close(release) // unwedge: the worker dequeues the expired task next
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call failed: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.DroppedExpired() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.DroppedExpired(); n != 1 {
		t.Fatalf("server dropped-expired counter = %d, want 1", n)
	}
	if executed.Load() != 0 {
		t.Fatalf("expired request executed %d times, want 0", executed.Load())
	}
}

// --- hardened client integration -------------------------------------

// TestFailoverShedIsNotAFailure checks a server-side shed neither
// trips the breaker nor is retried, and lands in the Shed counter.
func TestFailoverShedIsNotAFailure(t *testing.T) {
	srv := NewServer()
	srv.RegisterCtx("m", func(ctx context.Context, in []byte) ([]byte, error) {
		return nil, ShedError(25 * time.Millisecond)
	})
	cc, sc := Pair()
	srv.ServeConn(sc)
	defer srv.Close()
	rc := oneEndpoint(func() (net.Conn, error) { return cc, nil }, FailoverOptions{
		Breaker:  BreakerConfig{Threshold: 1, Cooldown: time.Minute},
		Attempts: 4,
	})
	defer rc.Close()

	for i := 0; i < 3; i++ {
		_, err := rc.Call(context.Background(), "m", []byte("x"))
		if !IsShed(err) {
			t.Fatalf("call %d: err = %v, want shed", i, err)
		}
	}
	st := rc.Stats()
	if st.Shed != 3 {
		t.Fatalf("Shed = %d, want 3", st.Shed)
	}
	if st.Retries != 0 {
		t.Fatalf("shed responses were retried %d times, want 0", st.Retries)
	}
	if st.Rejected != 0 {
		t.Fatalf("breaker rejected %d calls after sheds: sheds counted as failures", st.Rejected)
	}
	if s := rc.Breaker(0).State(); s != BreakerClosed {
		t.Fatalf("breaker state after sheds = %v, want closed", s)
	}
}

// TestFailoverBudgetDeniedRetry checks an empty shared budget stops
// the retry loop with ErrRetryBudgetExhausted and counts it.
func TestFailoverBudgetDeniedRetry(t *testing.T) {
	budget := NewRetryBudget(DefaultRetryBudgetRatio, 1)
	if !budget.Withdraw() {
		t.Fatal("could not drain the budget")
	}
	rc := oneEndpoint(func() (net.Conn, error) {
		return nil, errors.New("refused")
	}, FailoverOptions{Attempts: 6, Budget: budget})
	defer rc.Close()

	_, err := rc.Call(context.Background(), "m", []byte("x"))
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want retry budget exhausted", err)
	}
	st := rc.Stats()
	if st.BudgetDenied != 1 {
		t.Fatalf("BudgetDenied = %d, want 1", st.BudgetDenied)
	}
	if st.Retries != 0 {
		t.Fatalf("retried %d times against an empty budget", st.Retries)
	}
}
