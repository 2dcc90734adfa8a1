package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// callOnly is the thin Transport view of a FailoverClient, which has
// Call and Close but no CallSync or Healthy of its own: the contract's
// health assertions are skipped for it.
type callOnly struct{ *FailoverClient }

func (v callOnly) CallSync(method string, payload []byte) ([]byte, error) {
	return v.Call(context.Background(), method, payload)
}
func (v callOnly) Healthy() bool { return true }
func (v callOnly) Close() error  { v.FailoverClient.Close(); return nil }

// contractServer registers one handler per behaviour the contract
// checks, and counts interceptor invocations.
func contractServer(t *testing.T) (*Server, *atomic.Int64) {
	t.Helper()
	srv := NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	srv.Register("boom", func([]byte) ([]byte, error) { return nil, errors.New("kaboom") })
	srv.Register("shed", func([]byte) ([]byte, error) { return nil, ShedError(25 * time.Millisecond) })
	srv.Register("late", func([]byte) ([]byte, error) { return nil, &DeadlineExceededError{Late: 5 * time.Millisecond} })
	srv.Register("fenced", func([]byte) ([]byte, error) { return nil, FencedError(3, 7) })
	srv.Register("standby", func([]byte) ([]byte, error) { return nil, NotLeaderError(2) })
	srv.RegisterCtx("block", func(ctx context.Context, _ []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	var intercepted atomic.Int64
	srv.SetInterceptor(func(ctx context.Context, method string, payload []byte, next HandlerCtx) ([]byte, error) {
		intercepted.Add(1)
		return next(ctx, payload)
	})
	t.Cleanup(srv.Close)
	return srv, &intercepted
}

// transportContract is the behaviour every Transport — and the hardened
// caller over one — owes its callers, whatever the calls ride. build
// must give the transport a caller pool of exactly one slot, so a
// leaked slot shows as a hang.
func transportContract(t *testing.T, build func(t *testing.T, srv *Server) Transport) {
	t.Run("echo", func(t *testing.T) {
		srv, intercepted := contractServer(t)
		tr := build(t, srv)
		for i := 0; i < 20; i++ {
			want := fmt.Sprintf("payload-%d", i)
			got, err := tr.CallSync("echo", []byte(want))
			if err != nil || string(got) != want {
				t.Fatalf("CallSync %d: %q, %v", i, got, err)
			}
			got, err = tr.Call(context.Background(), "echo", []byte(want))
			if err != nil || string(got) != want {
				t.Fatalf("Call %d: %q, %v", i, got, err)
			}
		}
		if n := intercepted.Load(); n != 40 {
			t.Fatalf("server interceptor bracketed %d of 40 calls", n)
		}
		if !tr.Healthy() {
			t.Fatal("live transport reports unhealthy")
		}
	})

	t.Run("server-error-untouched", func(t *testing.T) {
		srv, _ := contractServer(t)
		tr := build(t, srv)
		var se ServerError
		if _, err := tr.CallSync("boom", nil); !errors.As(err, &se) || string(se) != "kaboom" || err.Error() != "kaboom" {
			t.Fatalf("handler error = %v, want the bare ServerError kaboom", err)
		}
		if _, err := tr.CallSync("nosuch", nil); !errors.As(err, &se) || string(se) != ErrMethodNotFound.Error() {
			t.Fatalf("unknown method = %v, want ErrMethodNotFound's wire form", err)
		}
	})

	t.Run("typed-errors-survive", func(t *testing.T) {
		srv, _ := contractServer(t)
		tr := build(t, srv)
		_, err := tr.CallSync("shed", nil)
		if after, ok := ShedRetryAfter(err); !IsShed(err) || !ok || after != 25*time.Millisecond {
			t.Fatalf("shed = %v (retry-after %v, %v)", err, after, ok)
		}
		if _, err = tr.CallSync("late", nil); !IsDeadlineExceeded(err) {
			t.Fatalf("expired-deadline drop = %v", err)
		}
		_, err = tr.CallSync("fenced", nil)
		if se := ServerError(""); !errors.As(err, &se) || se != FencedError(3, 7) {
			t.Fatalf("fenced = %v, want %v", err, FencedError(3, 7))
		}
		_, err = tr.CallSync("standby", nil)
		if leader, ok := RedirectTarget(err); !ok || leader != 2 {
			t.Fatalf("redirect = %v (target %d, %v)", err, leader, ok)
		}
	})

	t.Run("cancel-returns-and-frees-the-slot", func(t *testing.T) {
		srv, _ := contractServer(t)
		tr := build(t, srv)
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan error, 1)
		go func() {
			_, err := tr.Call(ctx, "block", nil)
			res <- err
		}()
		time.Sleep(5 * time.Millisecond) // let the call occupy the one slot
		cancel()
		select {
		case err := <-res:
			// The caller abandons first (context.Canceled) or, on the ring,
			// the handler sees the cancel and its ctx.Err() crosses back as
			// a ServerError with the same text.
			var se ServerError
			if !errors.Is(err, context.Canceled) && !(errors.As(err, &se) && string(se) == context.Canceled.Error()) {
				t.Fatalf("cancelled call returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled call never returned")
		}
		tctx, tcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer tcancel()
		if got, err := tr.Call(tctx, "echo", []byte("next")); err != nil || string(got) != "next" {
			t.Fatalf("call after a cancelled one: %q, %v (slot leaked?)", got, err)
		}
	})

	t.Run("close-means-closed", func(t *testing.T) {
		srv, _ := contractServer(t)
		tr := build(t, srv)
		if _, err := tr.CallSync("echo", nil); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if _, err := tr.CallSync("echo", nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("CallSync after Close = %v, want ErrClosed", err)
		}
		if _, err := tr.Call(context.Background(), "echo", nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("Call after Close = %v, want ErrClosed", err)
		}
		if _, isView := tr.(callOnly); isView {
			return
		}
		if tr.Healthy() {
			t.Fatal("closed transport reports healthy")
		}
	})
}

func TestTransportContract(t *testing.T) {
	subjects := map[string]func(t *testing.T, srv *Server) Transport{
		"Ring": func(t *testing.T, srv *Server) Transport {
			r, err := NewRing(srv, RingOptions{Consumers: 1})
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"Client": func(t *testing.T, srv *Server) Transport { return pipeClientServer(t, srv, 1) },
		"Stream": func(t *testing.T, srv *Server) Transport { return pipeClientServer(t, srv, 4).Stream(1) },
		"FailoverClient": func(t *testing.T, srv *Server) Transport {
			fc := NewFailover([]func() (Transport, error){
				ConnEndpoint(func() (net.Conn, error) {
					cc, sc := Pair()
					srv.ServeConn(sc)
					return cc, nil
				}, 1),
			}, FailoverOptions{Attempts: 1})
			t.Cleanup(fc.Close)
			return callOnly{fc}
		},
		"DialFailover": func(t *testing.T, srv *Server) Transport {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			fc := DialFailover([]string{ln.Addr().String()}, FailoverOptions{Attempts: 1})
			t.Cleanup(fc.Close)
			return callOnly{fc}
		},
	}
	for name, build := range subjects {
		build := build
		t.Run(name, func(t *testing.T) { transportContract(t, build) })
	}
}
