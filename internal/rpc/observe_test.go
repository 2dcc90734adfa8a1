package rpc

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// obsLog is a goroutine-safe record of observer invocations.
type obsLog struct {
	mu      sync.Mutex
	started []string
	errs    []error
}

func (o *obsLog) observer(method string, payload []byte) func(error) {
	o.mu.Lock()
	o.started = append(o.started, method+":"+string(payload))
	o.mu.Unlock()
	return func(err error) {
		o.mu.Lock()
		o.errs = append(o.errs, err)
		o.mu.Unlock()
	}
}

func (o *obsLog) snapshot() ([]string, []error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string{}, o.started...), append([]error{}, o.errs...)
}

// observedEndpoints is one endpoint factory per transport kind, all
// serving srv: the observer contract must hold on whatever an endpoint
// builds (at the parent commit only framed connections were observed).
func observedEndpoints(t *testing.T, srv *Server) map[string]func() (Transport, error) {
	t.Helper()
	t.Cleanup(srv.Close)
	return map[string]func() (Transport, error){
		"client": func() (Transport, error) { return pipeClientServer(t, srv, 4), nil },
		"ring":   func() (Transport, error) { return NewRing(srv, RingOptions{}) },
		"mux":    func() (Transport, error) { return pipeClientServer(t, srv, 4).Stream(4), nil },
	}
}

func TestFailoverObserverSeesOutcomePerCall(t *testing.T) {
	for kind, ep := range observedEndpoints(t, echoServer()) {
		var log obsLog
		fc := NewFailover([]func() (Transport, error){ep}, FailoverOptions{Observer: log.observer})
		if _, err := fc.Call(context.Background(), "echo", []byte("hi")); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := fc.Call(context.Background(), "fail", nil); err == nil {
			t.Fatalf("%s: fail call succeeded", kind)
		}
		fc.Close()
		started, errs := log.snapshot()
		if len(started) != 2 || started[0] != "echo:hi" || started[1] != "fail:" {
			t.Fatalf("%s: observed starts = %v", kind, started)
		}
		if len(errs) != 2 || errs[0] != nil || errs[1] == nil {
			t.Fatalf("%s: observed outcomes = %v", kind, errs)
		}
	}
}

// One call that takes two attempts (a standby's redirect, then the
// primary's reply) is observed twice, each time with that attempt's
// error.
func TestFailoverObserverFiresOncePerAttempt(t *testing.T) {
	standby := NewServer()
	standby.Register("echo", func([]byte) ([]byte, error) { return nil, NotLeaderError(1) })
	primaries := observedEndpoints(t, echoServer())
	for kind, standbyEP := range observedEndpoints(t, standby) {
		var log obsLog
		fc := NewFailover([]func() (Transport, error){standbyEP, primaries[kind]},
			FailoverOptions{RetryBackoff: time.Millisecond, Observer: log.observer})
		out, err := fc.Call(context.Background(), "echo", []byte("x"))
		fc.Close()
		if err != nil || string(out) != "x" {
			t.Fatalf("%s: out=%q err=%v", kind, out, err)
		}
		started, errs := log.snapshot()
		if len(started) != 2 || len(errs) != 2 {
			t.Fatalf("%s: %d starts / %d outcomes for 2 attempts", kind, len(started), len(errs))
		}
		if target, ok := RedirectTarget(errs[0]); !ok || target != 1 || errs[1] != nil {
			t.Fatalf("%s: observed outcomes = %v, want [redirect→1, nil]", kind, errs)
		}
	}
}

func TestServerInterceptorWrapsPlainAndCtxHandlers(t *testing.T) {
	s := NewServer()
	s.Register("plain", func(p []byte) ([]byte, error) { return append(p, '!'), nil })
	s.RegisterCtx("withctx", func(ctx context.Context, p []byte) ([]byte, error) {
		return append(p, '?'), nil
	})
	var mu sync.Mutex
	var seen []string
	s.SetInterceptor(func(ctx context.Context, method string, payload []byte, next HandlerCtx) ([]byte, error) {
		mu.Lock()
		seen = append(seen, method+":"+string(payload))
		mu.Unlock()
		return next(ctx, payload)
	})
	c := pipeClientServer(t, s, 4)

	out, err := c.CallSync("plain", []byte("a"))
	if err != nil || string(out) != "a!" {
		t.Fatalf("plain = %q, %v", out, err)
	}
	out, err = c.CallSync("withctx", []byte("b"))
	if err != nil || string(out) != "b?" {
		t.Fatalf("withctx = %q, %v", out, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != "plain:a" || seen[1] != "withctx:b" {
		t.Fatalf("intercepted = %v", seen)
	}
}

func TestServerInterceptorCanShortCircuit(t *testing.T) {
	s := echoServer()
	s.SetInterceptor(func(ctx context.Context, method string, payload []byte, next HandlerCtx) ([]byte, error) {
		if method == "echo" {
			return nil, errors.New("vetoed")
		}
		return next(ctx, payload)
	})
	c := pipeClientServer(t, s, 4)
	if _, err := c.CallSync("echo", nil); err == nil || !strings.Contains(err.Error(), "vetoed") {
		t.Fatalf("err = %v", err)
	}
}
