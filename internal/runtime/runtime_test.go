package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func echoRuntime(cfg Config) *Runtime {
	r := New(cfg, nil)
	r.Register("echo", func(ctx context.Context, in []byte) ([]byte, error) {
		return in, nil
	})
	r.Register("upper", func(ctx context.Context, in []byte) ([]byte, error) {
		return bytes.ToUpper(in), nil
	})
	r.Register("boom", func(ctx context.Context, in []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	return r
}

func TestInvokeBasic(t *testing.T) {
	r := echoRuntime(DefaultConfig())
	defer r.Close()
	out, err := r.Invoke(context.Background(), "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hi" {
		t.Fatalf("output = %q", out)
	}
	st := r.Stats()
	if st.Invocations != 1 || st.ColdStarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnknownFunction(t *testing.T) {
	r := echoRuntime(DefaultConfig())
	defer r.Close()
	if _, err := r.Invoke(context.Background(), "nope", nil); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestWarmReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KeepAlive = time.Minute
	r := echoRuntime(cfg)
	defer r.Close()
	ctx := context.Background()
	r.Invoke(ctx, "echo", nil)
	if _, err := r.Invoke(ctx, "echo", nil); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.ColdStarts != 1 {
		t.Fatal("second invocation cold-started despite keep-alive")
	}
	if st := r.Stats(); st.WarmStarts != 1 {
		t.Fatalf("warm starts = %d", st.WarmStarts)
	}
}

func TestZeroKeepAliveAlwaysCold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KeepAlive = 0
	r := echoRuntime(cfg)
	defer r.Close()
	ctx := context.Background()
	r.Invoke(ctx, "echo", nil)
	r.Invoke(ctx, "echo", nil)
	if st := r.Stats(); st.ColdStarts != 2 {
		t.Fatal("instance reused with zero keep-alive")
	}
}

func TestRetriesOnFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retries = 2
	r := New(cfg, nil)
	defer r.Close()
	var calls atomic.Int32
	r.Register("flaky", func(ctx context.Context, in []byte) ([]byte, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	})
	out, err := r.Invoke(context.Background(), "flaky", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" || calls.Load() != 3 {
		t.Fatalf("output = %q after %d calls", out, calls.Load())
	}
	if st := r.Stats(); st.Retries != 2 {
		t.Fatalf("retry count = %d", st.Retries)
	}
}

func TestPermanentFailureSurfaces(t *testing.T) {
	r := echoRuntime(DefaultConfig())
	defer r.Close()
	_, err := r.Invoke(context.Background(), "boom", nil)
	if err == nil || !strings.Contains(err.Error(), "after 4 attempts") {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicIsolated(t *testing.T) {
	r := New(DefaultConfig(), nil)
	defer r.Close()
	r.Register("panic", func(ctx context.Context, in []byte) ([]byte, error) {
		panic("container crash")
	})
	_, err := r.Invoke(context.Background(), "panic", nil)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
}

func TestContextCancellationStopsRetries(t *testing.T) {
	r := New(DefaultConfig(), nil)
	defer r.Close()
	r.Register("slow", func(ctx context.Context, in []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, nil
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Invoke(ctx, "slow", nil)
	if err == nil {
		t.Fatal("cancelled invocation succeeded")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not stop retries promptly")
	}
}

func TestConcurrencyLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 2
	r := New(cfg, nil)
	defer r.Close()
	var running, peak atomic.Int32
	r.Register("track", func(ctx context.Context, in []byte) ([]byte, error) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		running.Add(-1)
		return nil, nil
	})
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			r.Invoke(context.Background(), "track", nil)
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d exceeds limit 2", got)
	}
}

func TestStragglerDuplicateWins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StragglerAfter = 30 * time.Millisecond
	r := New(cfg, nil)
	defer r.Close()
	var calls atomic.Int32
	r.Register("mixed", func(ctx context.Context, in []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			// Original straggles.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(3 * time.Second):
				return []byte("slow"), nil
			}
		}
		return []byte("fast"), nil
	})
	start := time.Now()
	out, err := r.Invoke(context.Background(), "mixed", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "fast" {
		t.Fatalf("output = %q", out)
	}
	if time.Since(start) > time.Second {
		t.Fatal("duplicate did not cut the straggler short")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("executions = %d, want the original and one duplicate", n)
	}
}

// A straggler duplicate is an execution like any other: with every
// in-flight slot taken by the original, none is launched.
func TestStragglerDuplicateRespectsMaxInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	cfg.StragglerAfter = 5 * time.Millisecond
	r := New(cfg, nil)
	defer r.Close()
	var running, peak, calls atomic.Int32
	r.Register("slow", func(ctx context.Context, in []byte) ([]byte, error) {
		calls.Add(1)
		n := running.Add(1)
		defer running.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		select {
		case <-ctx.Done():
		case <-time.After(40 * time.Millisecond):
		}
		return []byte("done"), nil
	})
	if _, err := r.Invoke(context.Background(), "slow", nil); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("peak concurrent executions = %d with MaxInFlight 1", got)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1: no duplicate without a free slot", n)
	}
}

func TestChainThroughStore(t *testing.T) {
	r := echoRuntime(DefaultConfig())
	defer r.Close()
	out, err := r.Chain(context.Background(), "c1", []string{"echo", "upper"}, []byte("people"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "PEOPLE" {
		t.Fatalf("chain output = %q", out)
	}
	// Intermediate outputs persisted CouchDB-style.
	if _, err := r.Store().Get("out/echo/c1"); err != nil {
		t.Fatal("intermediate output not in store")
	}
	if _, err := r.Store().Get("out/upper/c1"); err != nil {
		t.Fatal("final output not in store")
	}
}

func TestChainErrors(t *testing.T) {
	r := echoRuntime(DefaultConfig())
	defer r.Close()
	if _, err := r.Chain(context.Background(), "c", nil, nil); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, err := r.Chain(context.Background(), "c", []string{"echo", "boom"}, []byte("x")); err == nil {
		t.Fatal("failing tier not surfaced")
	}
}

func TestFanOutOrdering(t *testing.T) {
	r := echoRuntime(DefaultConfig())
	defer r.Close()
	inputs := make([][]byte, 32)
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("part-%02d", i))
	}
	outs, err := r.FanOut(context.Background(), "upper", inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		want := strings.ToUpper(string(inputs[i]))
		if string(out) != want {
			t.Fatalf("out[%d] = %q, want %q", i, out, want)
		}
	}
}

func TestFanOutPropagatesErrors(t *testing.T) {
	r := echoRuntime(DefaultConfig())
	defer r.Close()
	if _, err := r.FanOut(context.Background(), "boom", [][]byte{nil, nil}); err == nil {
		t.Fatal("fan-out error swallowed")
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	r := echoRuntime(DefaultConfig())
	r.Close()
	r.Close() // idempotent
	if _, err := r.Invoke(context.Background(), "echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestKeepAliveExpiresIdleInstance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KeepAlive = 20 * time.Millisecond
	r := echoRuntime(cfg)
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Invoke(ctx, "echo", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := r.Invoke(ctx, "echo", nil); err != nil {
		t.Fatal(err)
	}
	if r.Stats().ColdStarts != 2 {
		t.Fatal("instance idle past KeepAlive was reused")
	}
	time.Sleep(time.Millisecond)
	if r.Invoke(ctx, "echo", nil); r.Stats().ColdStarts != 2 {
		t.Fatal("instance idle within KeepAlive cold-started")
	}
}
