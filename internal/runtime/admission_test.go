package runtime

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
)

// testAdmission builds a bare admission controller (no monitor, no
// runtime) for direct unit testing.
func testAdmission(cfg AdmissionConfig) *admission {
	return newAdmission(&Gateway{}, cfg)
}

func TestAdmissionFastPath(t *testing.T) {
	a := testAdmission(AdmissionConfig{MaxConcurrent: 2})
	for range 2 {
		if err := a.admit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	a.mu.Lock()
	active := a.active
	a.mu.Unlock()
	if active != 2 {
		t.Fatalf("active = %d, want 2", active)
	}
	a.release()
	a.release()
	a.mu.Lock()
	active = a.active
	a.mu.Unlock()
	if active != 0 {
		t.Fatalf("active after release = %d, want 0", active)
	}
}

func TestAdmissionQueueFullSheds(t *testing.T) {
	a := testAdmission(AdmissionConfig{MaxConcurrent: 1, QueueLen: 1})
	if err := a.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot.
	granted := make(chan error, 1)
	go func() {
		err := a.admit(context.Background())
		if err == nil {
			a.release()
		}
		granted <- err
	}()
	waitCond(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.queued == 1
	})
	// The queue is full: the next arrival is shed immediately with the
	// retry-after hint.
	err := a.admit(context.Background())
	if !rpc.IsShed(err) {
		t.Fatalf("err = %v, want shed", err)
	}
	if ra, ok := rpc.ShedRetryAfter(err); !ok || ra != shedRetryAfter {
		t.Fatalf("retry-after = %v, %v", ra, ok)
	}
	if a.shedFull.Load() != 1 {
		t.Fatalf("shedFull = %d", a.shedFull.Load())
	}
	a.release()
	if err := <-granted; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestAdmissionCancelledWaiterFreesQueue(t *testing.T) {
	a := testAdmission(AdmissionConfig{MaxConcurrent: 1, QueueLen: 4})
	if err := a.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- a.admit(ctx)
	}()
	waitCond(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.queued == 1
	})
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	a.mu.Lock()
	queued := a.queued
	a.mu.Unlock()
	if queued != 0 {
		t.Fatalf("queued after cancel = %d", queued)
	}
	// The slot the cancelled waiter never took is still grantable.
	a.release()
	if err := a.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.release()
}

// TestAdmissionCancelledWaitersDontCountTowardLaneFull is the
// regression test for the queue-full check counting cancelled waiters
// still parked in the queue slice: after a burst of client timeouts the
// queue must keep accepting arrivals while its live depth is below
// QueueLen, and the backing slice must not grow without bound.
func TestAdmissionCancelledWaitersDontCountTowardLaneFull(t *testing.T) {
	a := testAdmission(AdmissionConfig{MaxConcurrent: 1, QueueLen: 4})
	if err := a.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Three bursts of QueueLen clients queue up and time out: 12
	// cancelled waiters pass through a 4-deep queue.
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := a.admit(ctx); !errors.Is(err, context.Canceled) {
					t.Errorf("round %d waiter err = %v, want cancelled", round, err)
				}
			}()
			waitCond(t, func() bool {
				a.mu.Lock()
				defer a.mu.Unlock()
				return a.queued == i+1
			})
		}
		cancel()
		wg.Wait()
	}
	// Live depth is zero: a fresh arrival must queue, not shed.
	granted := make(chan error, 1)
	go func() {
		err := a.admit(context.Background())
		if err == nil {
			a.release()
		}
		granted <- err
	}()
	waitCond(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.queued == 1
	})
	if got := a.shedFull.Load(); got != 0 {
		t.Fatalf("spurious shed-full after cancellations: %d", got)
	}
	a.mu.Lock()
	parked := len(a.queue)
	a.mu.Unlock()
	if parked > 2*4 {
		t.Fatalf("cancelled waiters accumulated: %d parked, want compaction to bound it", parked)
	}
	a.release()
	if err := <-granted; err != nil {
		t.Fatalf("live waiter after cancellation burst: %v", err)
	}
}

// TestAdmissionCancelRepublishesDepthGauge is the regression test for
// the ctx-cancel path leaving a stale gateway-queue-depth high-water
// reading: the gauge must drop when a queued waiter cancels, not wait
// for the next release/enqueue.
func TestAdmissionCancelRepublishesDepthGauge(t *testing.T) {
	mon := metrics.NewRegistry()
	g := &Gateway{monitor: mon}
	a := newAdmission(g, AdmissionConfig{MaxConcurrent: 1, QueueLen: 4})
	if err := a.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- a.admit(ctx)
	}()
	waitCond(t, func() bool { return showsGauge(mon, "gateway-queue-depth 1") })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	waitCond(t, func() bool { return showsGauge(mon, "gateway-queue-depth 0") })
	a.release()
}

// TestGatewayOverloadSheds drives an Overload-configured gateway past
// capacity end to end and checks sheds surface as rpc.ShedError with
// the shed/ok counters split correctly.
func TestGatewayOverloadSheds(t *testing.T) {
	rt := New(DefaultConfig(), nil)
	defer rt.Close()
	block := make(chan struct{})
	rt.Register("hold", func(ctx context.Context, in []byte) ([]byte, error) {
		select {
		case <-block:
			return bytes.ToUpper(in), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	cfg := DefaultGatewayConfig()
	cfg.Overload = &AdmissionConfig{MaxConcurrent: 2, QueueLen: 2}
	g := NewGatewayConfig(rt, cfg)
	mon := metrics.NewRegistry()
	g.SetMonitor(mon)
	g.Expose("m", "hold")
	c := gatewayPair(t, g)

	const calls = 8 // 2 run, 2 queue, 4 shed
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := c.CallSync("m", []byte("x"))
			errs <- err
		}()
	}
	waitCond(t, func() bool {
		s := g.AdmissionStats()
		return s.ShedFull == calls-4
	})
	close(block)
	var shed, ok int
	for i := 0; i < calls; i++ {
		switch err := <-errs; {
		case err == nil:
			ok++
		case rpc.IsShed(err):
			if _, hasHint := rpc.ShedRetryAfter(err); !hasHint {
				t.Errorf("shed without retry-after hint: %v", err)
			}
			shed++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if shed != 4 || ok != 4 {
		t.Fatalf("shed = %d, ok = %d, want 4/4", shed, ok)
	}
	if got := mon.Counter("gateway-shed"); got != 4 {
		t.Fatalf("gateway-shed count = %g, want 4", got)
	}
	if got := mon.Counter("gateway-ok"); got != 4 {
		t.Fatalf("gateway-ok count = %g, want 4", got)
	}
	if got := mon.Counter("gateway-error"); got != 0 {
		t.Fatalf("sheds leaked into gateway-error: %g", got)
	}
}

// TestGatewayDropsExpiredBeforeDispatch checks the gateway refuses to
// dispatch work whose wire deadline already passed, counting it as an
// expired drop rather than executing it.
func TestGatewayDropsExpiredBeforeDispatch(t *testing.T) {
	rt := New(DefaultConfig(), nil)
	defer rt.Close()
	var executed atomic.Int64
	rt.Register("f", func(ctx context.Context, in []byte) ([]byte, error) {
		executed.Add(1)
		return in, nil
	})
	g := newGateway(rt, time.Second)
	mon := metrics.NewRegistry()
	g.SetMonitor(mon)
	g.Expose("m", "f")
	c := gatewayPair(t, g)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := c.Call(ctx, "m", []byte("x"))
	if err == nil {
		t.Fatal("expired call succeeded")
	}
	if executed.Load() != 0 {
		t.Fatalf("expired request executed %d times", executed.Load())
	}
}

// waitCond polls until cond holds or the test deadline approaches.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("condition never held")
}

// showsGauge reports whether mon's text exposition carries the line
// "gauge <nameValue>".
func showsGauge(mon *metrics.Registry, nameValue string) bool {
	var b strings.Builder
	mon.WriteText(&b)
	return strings.Contains(b.String(), "gauge "+nameValue+"\n")
}
