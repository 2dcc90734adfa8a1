package chaos_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/fleet"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/stats"
)

// This file is the overload acceptance suite: a replica set whose
// gateways run behind the admission front door, driven open-loop at 2×
// sustained capacity with a chaos-scheduled primary kill mid-run. The
// §3.2 queueing model predicts uncontrolled overload collapses into a
// timeout storm; the controlled gateway must instead hold goodput near
// saturation, keep admitted-request p99 inside the SLO, shed the rest
// cheaply, and never burn a worker executing a request whose deadline
// already expired.

// expiredGrace separates scheduling jitter from a real
// executed-expired-work bug: a function entered within this much of
// its deadline passing is a benign race; later than this is work the
// drop layers should have refused.
const expiredGrace = 10 * time.Millisecond

// Acceptance: 2× sustained capacity, primary killed mid-run. Goodput
// stays at >= 80% of the measured saturation capacity, admitted p99
// holds the SLO, load is shed (not timed out), no node executes
// deadline-expired work, and the fleet still fails over.
func TestOverloadE2EGoodputHoldsAtTwiceCapacityWithPrimaryKill(t *testing.T) {
	const (
		replicas    = 3
		maxConc     = 8
		exec        = 8 * time.Millisecond
		reqDeadline = 800 * time.Millisecond
		slo         = 250 * time.Millisecond
		runFor      = 4 * time.Second
	)
	mon := controller.NewMonitor()
	inj := chaos.NewInjector(99, chaos.Config{})
	// Each gateway exposes a fixed-cost "work" function behind the
	// admission controller, reporting into a registry of its own (so
	// per-node counters survive the node's death); the function counts
	// ctx-already-expired entries under "expired-executed".
	regs := make([]*metrics.Registry, replicas)
	rcfg := runtime.DefaultConfig()
	rcfg.MaxInFlight = maxConc // the backend's true finite capacity
	f := bootFleet(t, fleet.Config{
		Seed: 99, Monitor: mon, Fault: inj, Runtime: rcfg,
		Gateway: runtime.GatewayConfig{Overload: &runtime.AdmissionConfig{
			MaxConcurrent: maxConc,
			QueueLen:      2 * maxConc,
			RetryAfter:    25 * time.Millisecond,
		}},
		Setup: func(nd *fleet.Node) {
			reg := metrics.NewRegistry()
			regs[nd.ID] = reg
			nd.Runtime.Register("work", func(ctx context.Context, in []byte) ([]byte, error) {
				if d, ok := ctx.Deadline(); ok && time.Since(d) > expiredGrace {
					reg.CountEvent("expired-executed")
				}
				select {
				case <-time.After(exec):
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
	defer fc.Close()

	// Measure saturation goodput closed-loop: exactly maxConc
	// outstanding, no queueing, no shedding. This is the ceiling the
	// overloaded run is scored against.
	capacity := calibrateFailover(t, fc, maxConc)
	rate := 2 * capacity
	interval := time.Duration(float64(time.Second) / rate)

	var (
		ok, shed, timeout, errs atomic.Int64
		latMu                   sync.Mutex
		lat                     stats.Sample
		wg                      sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(runFor)
	killed := false
	for i := 0; ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if at.After(end) {
			break
		}
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		if !killed && time.Since(start) >= runFor/2 {
			inj.At(controller.KillControllerOp(primary.ID), 0)
			killed = true
		}
		wg.Add(1)
		go func(at time.Time) {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), at.Add(reqDeadline))
			defer cancel()
			_, err := fc.Call(ctx, "work", []byte("x"))
			elapsed := time.Since(at) // from scheduled arrival: no omission
			switch {
			case err == nil:
				ok.Add(1)
				latMu.Lock()
				lat.Add(elapsed.Seconds())
				latMu.Unlock()
			case rpc.IsShed(err):
				shed.Add(1)
			case rpc.IsDeadlineExceeded(err):
				timeout.Add(1)
			default:
				errs.Add(1)
			}
		}(at)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	goodput := float64(ok.Load()) / elapsed
	latMu.Lock()
	p99 := time.Duration(lat.Percentile(99) * float64(time.Second))
	latMu.Unlock()
	t.Logf("capacity %.0f rps | offered %.0f rps | goodput %.0f rps | p99 %v | ok %d shed %d timeout %d err %d",
		capacity, rate, goodput, p99, ok.Load(), shed.Load(), timeout.Load(), errs.Load())

	if !killed {
		t.Fatal("kill was never scheduled")
	}
	if goodput < 0.8*capacity {
		t.Fatalf("goodput %.0f rps under overload+kill, want >= 80%% of %.0f rps capacity", goodput, capacity)
	}
	if p99 > slo {
		t.Fatalf("admitted p99 %v exceeds %v SLO", p99, slo)
	}
	if shed.Load() == 0 {
		t.Fatal("2x overload shed nothing: admission control inert")
	}
	// The tentpole invariant: no node executed deadline-expired work.
	for id, reg := range regs {
		if n := reg.Counter("expired-executed"); n != 0 {
			t.Fatalf("node %d executed %v deadline-expired requests", id, n)
		}
	}
	waitFailover(t, mon, 5*time.Second)
}

// calibrateFailover measures closed-loop saturation goodput through the
// leader-following client.
func calibrateFailover(t *testing.T, fc *rpc.FailoverClient, workers int) float64 {
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
				_, err := fc.Call(rctx, "work", []byte("x"))
				rcancel()
				if err == nil {
					done.Add(1)
				}
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
func waitFailover(t *testing.T, mon *controller.Monitor, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if mon.Failover().Failovers >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no failover recorded: %s", fmt.Sprint(mon.Failover()))
}
