package chaos_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/fleet"
	"hivemind/internal/ingress"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/stats"
)

// This file is the overload acceptance suite: a replica set whose
// gateways run behind the admission front door, driven open-loop at 2×
// sustained capacity with a chaos-scheduled primary kill mid-run. The
// §3.2 queueing model predicts uncontrolled overload turns into queueing
// delay; the controlled gateway must instead hold goodput near
// saturation, keep admitted-request p99 inside the SLO, shed the rest
// cheaply, and never burn a worker executing a request whose deadline
// already expired. One open-loop generator runs three rows: the RPC front
// door, the HTTP front door (one ingress node in front of the fleet),
// and the RPC front door with admission off, whose p99 is the number
// that justifies GatewayConfig.Overload.

// expiredGrace separates scheduling jitter from a real
// executed-expired-work bug: a function entered within this much of
// its deadline passing is a benign race; later than this is work the
// drop layers should have refused.
const expiredGrace = 10 * time.Millisecond

// Overload suite parameters shared by every row.
const (
	ovlMaxConc  = 8
	ovlExec     = 8 * time.Millisecond
	ovlDeadline = 800 * time.Millisecond
	ovlSLO      = 250 * time.Millisecond
	ovlRunFor   = 3 * time.Second
)

// outcome classifies one request of the open-loop generator.
type outcome int

const (
	outOK outcome = iota
	outShed
	outTimeout
	outErr
)

// overloadResult is one row's open-loop run.
type overloadResult struct {
	capacity, goodput       float64 // rps
	p99                     time.Duration
	ok, shed, timeout, errs int64
	// gatewayShed sums the gateways' own queue-full sheds: the client's
	// shed count also includes sheds of the RPC mux stream's bounded
	// queue, which happen with admission off too.
	gatewayShed uint64
	// noRetryAfter counts HTTP 503s that carried no Retry-After header.
	noRetryAfter int64
}

// Acceptance, per row: 2× sustained capacity, primary killed mid-run.
// With admission on, goodput stays at >= 80% of the measured saturation
// capacity, admitted p99 holds the SLO and the gateways themselves shed;
// through HTTP every 503 carries Retry-After. With admission off, the
// admitted p99 is at least twice the admission-on RPC row's. No row
// executes deadline-expired work, and every row still fails over.
func TestOverloadE2EGoodputHoldsAtTwiceCapacityWithPrimaryKill(t *testing.T) {
	rows := []struct {
		name      string
		admission bool
		http      bool
	}{
		{name: "rpc", admission: true},
		{name: "http", admission: true, http: true},
		{name: "admission-off"},
	}
	var rpcP99 time.Duration
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := runOverload(t, row.admission, row.http)
			if row.admission {
				if r.goodput < 0.8*r.capacity {
					t.Fatalf("goodput %.0f rps under overload+kill, want >= 80%% of %.0f rps capacity", r.goodput, r.capacity)
				}
				if r.p99 > ovlSLO {
					t.Fatalf("admitted p99 %v exceeds %v SLO", r.p99, ovlSLO)
				}
				if r.gatewayShed == 0 {
					t.Fatal("2x overload: the gateways shed nothing: admission control inert")
				}
			}
			if r.noRetryAfter > 0 {
				t.Fatalf("%d of %d 503s carried no Retry-After", r.noRetryAfter, r.shed)
			}
			switch row.name {
			case "rpc":
				rpcP99 = r.p99
			case "admission-off":
				if rpcP99 == 0 {
					t.Fatal("no p99 from the rpc row to compare against: run the whole test")
				}
				if r.p99 < 2*rpcP99 {
					t.Fatalf("admission off: admitted p99 %v, want >= 2x the admission-on p99 %v", r.p99, rpcP99)
				}
			}
		})
	}
}

// runOverload boots a fleet whose gateways expose a fixed-cost "work"
// function (behind the admission front door when admission is set),
// calibrates closed-loop capacity through the chosen front door, then
// drives it open-loop at twice that, killing the primary halfway.
func runOverload(t *testing.T, admission, viaHTTP bool) overloadResult {
	mon := metrics.NewRegistry()
	inj := chaos.NewInjector(99, chaos.Config{})
	// Each gateway reports into a registry of its own (so per-node
	// counters survive the node's death); the function counts
	// ctx-already-expired entries under "expired-executed".
	regs := make([]*metrics.Registry, 3)
	rcfg := runtime.DefaultConfig()
	rcfg.MaxInFlight = ovlMaxConc // the backend's true finite capacity
	var gcfg runtime.GatewayConfig
	if admission {
		gcfg.Overload = &runtime.AdmissionConfig{MaxConcurrent: ovlMaxConc, QueueLen: 2 * ovlMaxConc}
	}
	f := bootFleet(t, fleet.Config{
		Seed: 99, Monitor: mon, Fault: inj, Runtime: rcfg, Gateway: gcfg,
		Setup: func(nd *fleet.Node) {
			reg := metrics.NewRegistry()
			regs[nd.ID] = reg
			nd.Runtime.Register("work", func(ctx context.Context, in []byte) ([]byte, error) {
				if d, ok := ctx.Deadline(); ok && time.Since(d) > expiredGrace {
					reg.CountEvent("expired-executed")
				}
				select {
				case <-time.After(ovlExec):
					return in, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			})
			nd.Gateway.SetMonitor(reg)
			nd.Gateway.Expose("work", "work")
		},
	})
	primary := leader(t, f)

	// Route the client at the doomed primary first so the mid-run kill
	// disrupts live traffic; the sweep must carry it to a standby.
	addrs := []string{primary.Addr}
	for _, nd := range f.Nodes {
		if nd != primary {
			addrs = append(addrs, nd.Addr)
		}
	}
	fc := rpc.DialFailover(addrs, rpc.FailoverOptions{
		Callers:      1024,
		Attempts:     12,
		RetryBackoff: 10 * time.Millisecond,
		CallTimeout:  2 * time.Second,
	})
	t.Cleanup(func() { fc.Close() })

	var (
		res          overloadResult
		noRetryAfter atomic.Int64
	)
	call := func(ctx context.Context) outcome {
		_, err := fc.Call(ctx, "work", []byte("x"))
		switch {
		case err == nil:
			return outOK
		case rpc.IsShed(err):
			return outShed
		case rpc.IsDeadlineExceeded(err):
			return outTimeout
		}
		return outErr
	}
	if viaHTTP {
		call = httpFrontDoor(t, fc, &noRetryAfter)
	}

	// Saturation goodput measured closed-loop: exactly ovlMaxConc
	// outstanding, no queueing, no shedding. This is the ceiling the
	// overloaded run is scored against.
	res.capacity = calibrate(t, call, ovlMaxConc)
	killed := false
	openLoop(2*res.capacity, ovlRunFor, &res, call, func(elapsed time.Duration) {
		if !killed && elapsed >= ovlRunFor/2 {
			inj.At(controller.KillControllerOp(primary.ID), 0)
			killed = true
		}
	})
	res.noRetryAfter = noRetryAfter.Load()
	for _, nd := range f.Nodes {
		res.gatewayShed += nd.Gateway.AdmissionStats().ShedFull
	}
	t.Logf("capacity %.0f rps | offered %.0f rps | goodput %.0f rps | p99 %v | ok %d shed %d (gateways %d) timeout %d err %d",
		res.capacity, 2*res.capacity, res.goodput, res.p99, res.ok, res.shed, res.gatewayShed, res.timeout, res.errs)

	if !killed {
		t.Fatal("kill was never scheduled")
	}
	// The drop layers' invariant: no node executed deadline-expired work.
	for id, reg := range regs {
		if n := reg.Counter("expired-executed"); n != 0 {
			t.Fatalf("node %d executed %v deadline-expired requests", id, n)
		}
	}
	waitFailover(t, mon, 5*time.Second)
	return res
}

// httpFrontDoor puts one ingress node in front of the fleet, dispatching
// through fc, and returns a call that POSTs a unique payload to
// /do/work?then=true (unique, so nothing coalesces and every POST is
// one dispatch). A 503 without Retry-After is counted in noRetryAfter.
func httpFrontDoor(t *testing.T, fc *rpc.FailoverClient, noRetryAfter *atomic.Int64) func(context.Context) outcome {
	ing, err := ingress.NewServer(ingress.Options{Dispatcher: fc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	ts := httptest.NewServer(ing)
	t.Cleanup(ts.Close)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
		IdleConnTimeout:     30 * time.Second,
	}}
	t.Cleanup(client.CloseIdleConnections)
	url := ts.URL + "/do/work?then=true"
	var seq atomic.Uint64
	return func(ctx context.Context) outcome {
		payload := "u-" + strconv.FormatUint(seq.Add(1), 10)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(payload))
		if err != nil {
			return outErr
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return outTimeout
			}
			return outErr
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return outOK
		case http.StatusServiceUnavailable:
			if resp.Header.Get("Retry-After") == "" {
				noRetryAfter.Add(1)
			}
			return outShed
		case http.StatusGatewayTimeout:
			return outTimeout
		}
		return outErr
	}
}

// openLoop schedules arrival i at start + i/rate regardless of how
// earlier requests fare, and times each from its scheduled arrival, so
// queueing the target imposes is charged to the target (no coordinated
// omission). tick runs before each arrival with the time since start.
func openLoop(rate float64, runFor time.Duration, res *overloadResult, call func(context.Context) outcome, tick func(time.Duration)) {
	interval := time.Duration(float64(time.Second) / rate)
	var (
		ok, shed, timeout, errs atomic.Int64
		latMu                   sync.Mutex
		lat                     stats.Sample
		wg                      sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(runFor)
	for i := 0; ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if at.After(end) {
			break
		}
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		tick(time.Since(start))
		wg.Add(1)
		go func(at time.Time) {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), at.Add(ovlDeadline))
			defer cancel()
			out := call(ctx)
			elapsed := time.Since(at)
			switch out {
			case outOK:
				ok.Add(1)
				latMu.Lock()
				lat.Add(elapsed.Seconds())
				latMu.Unlock()
			case outShed:
				shed.Add(1)
			case outTimeout:
				timeout.Add(1)
			default:
				errs.Add(1)
			}
		}(at)
	}
	wg.Wait()
	res.goodput = float64(ok.Load()) / time.Since(start).Seconds()
	res.p99 = time.Duration(lat.Percentile(99) * float64(time.Second))
	res.ok, res.shed, res.timeout, res.errs = ok.Load(), shed.Load(), timeout.Load(), errs.Load()
}

// calibrate measures closed-loop saturation goodput: workers callers,
// each firing its next request when the last one returns.
func calibrate(t *testing.T, call func(context.Context) outcome, workers int) float64 {
	t.Helper()
	const window = 700 * time.Millisecond
	var done atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
				if call(rctx) == outOK {
					done.Add(1)
				}
				rcancel()
			}
		}()
	}
	wg.Wait()
	capacity := float64(done.Load()) / time.Since(start).Seconds()
	if capacity <= 0 {
		t.Fatal("calibration produced no capacity")
	}
	return capacity
}

// waitFailover polls the monitor until a failover is recorded.
func waitFailover(t *testing.T, mon *metrics.Registry, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if controller.Failover(mon).Failovers >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no failover recorded: %s", fmt.Sprint(controller.Failover(mon)))
}
