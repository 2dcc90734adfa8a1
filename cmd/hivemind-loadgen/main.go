// Command hivemind-loadgen is an open-loop constant-arrival load
// generator for the gateway front door. Closed-loop drivers (fire,
// wait, fire again) silently slow down when the target saturates —
// coordinated omission — and so cannot see an overload collapse at
// all. This generator schedules arrival i at start + i/rate regardless
// of how the previous requests are faring, and measures each request's
// latency from its *scheduled* arrival, so queueing delay the target
// imposes is charged to the target, not hidden by the driver.
//
// It boots an in-process single-node stack on loopback, calibrates its
// closed-loop saturation capacity, then drives an open-loop run at
// -load times that capacity. By default requests are raw RPCs over TCP
// to one gateway. With -http they are POST /do/work?then=true on the
// async job API of one ingress node, which dispatches to its
// co-located gateway over the Linker's shm ring.
//
// Usage:
//
//	hivemind-loadgen -load 1.5 -duration 10s        # overload by 50%
//	hivemind-loadgen -smoke -duration 30s           # gate: sheds and holds p99
//	hivemind-loadgen -burst 500                     # flash crowd mid-run
//	hivemind-loadgen -http -smoke -duration 20s     # the same gate through HTTP ingress
//
// This is an overload check, not a benchmark: throughput and latency of
// the stack are measured by the benchmark ledger (BENCHMARK.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/ingress"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/stats"
	"hivemind/internal/store"
)

type options struct {
	rate      float64       // arrivals/s (0: load × calibrated capacity)
	load      float64       // offered load as a multiple of capacity
	duration  time.Duration // open-loop run length
	exec      time.Duration // per-request function execution time
	workers   int           // gateway MaxConcurrent
	queue     int           // per-lane admission queue length (0: 2×workers)
	deadline  time.Duration // per-request deadline (propagated on the wire)
	slo       time.Duration // admitted-request p99 SLO (smoke gate)
	conns     int           // client connections (raw RPC target)
	admission bool          // enable the admission controller
	smoke     bool          // assert sheds>0 and p99<=slo, exit 1 otherwise
	burst     int           // chaos.Burst extra arrivals fired mid-run
	seed      int64
	httpMode  bool // drive the async HTTP job API instead of raw RPC
}

func main() {
	var o options
	flag.Float64Var(&o.rate, "rate", 0, "arrival rate in req/s (0: -load × calibrated capacity)")
	flag.Float64Var(&o.load, "load", 1.5, "offered load as a multiple of calibrated capacity")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "open-loop run length")
	flag.DurationVar(&o.exec, "exec", 5*time.Millisecond, "simulated function execution time")
	flag.IntVar(&o.workers, "workers", 32, "gateway MaxConcurrent (capacity = workers/exec)")
	flag.IntVar(&o.queue, "queue", 0, "admission queue length per lane (0: 2×workers)")
	flag.DurationVar(&o.deadline, "deadline", 500*time.Millisecond, "per-request deadline, propagated on the wire")
	flag.DurationVar(&o.slo, "slo", 250*time.Millisecond, "admitted-request p99 SLO")
	flag.IntVar(&o.conns, "conns", 4, "client connections (raw RPC target)")
	flag.BoolVar(&o.admission, "admission", true, "enable the admission controller")
	flag.BoolVar(&o.smoke, "smoke", false, "gate mode: fail unless the run shed load and held the p99 SLO")
	flag.IntVar(&o.burst, "burst", 0, "extra arrivals injected as one mid-run flash crowd (chaos.Burst)")
	flag.Int64Var(&o.seed, "seed", 1, "chaos seed")
	flag.BoolVar(&o.httpMode, "http", false, "drive the async HTTP job API of one ingress node instead of raw RPC")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// outcome classifies one request.
type outcome int

const (
	outOK outcome = iota
	outShed
	outTimeout
	outErr
)

// result is one open-loop run's outcome. Latencies are of admitted
// (OK) requests, from scheduled arrival.
type result struct {
	offeredRPS, goodputRPS  float64
	ok, shed, timeout, errs int64
	p50Ms, p99Ms            float64
}

// run boots the stack, calibrates it, drives one open-loop run and,
// with -smoke, gates on the outcome.
func run(o options) error {
	s, err := newStack(o)
	if err != nil {
		return err
	}
	defer s.close()

	capacity := s.calibrate(o)
	rate := o.rate
	if rate <= 0 {
		rate = o.load * capacity
	}
	if rate <= 0 {
		return fmt.Errorf("calibration produced no capacity")
	}
	r := s.openLoop(o, rate)
	target := "rpc"
	if o.httpMode {
		target = "http"
	}
	fmt.Printf("openloop/%s/admission=%v/load=%.2fx capacity %7.0f rps | offered %7.0f rps | goodput %7.0f rps | p50 %6.1fms p99 %6.1fms | ok %d shed %d timeout %d err %d | server expired-drops %d%s\n",
		target, o.admission, rate/capacity, capacity, r.offeredRPS, r.goodputRPS, r.p50Ms, r.p99Ms,
		r.ok, r.shed, r.timeout, r.errs, s.gw.Server().DroppedExpired(), s.report())
	if o.smoke {
		return smokeGate(o, r, capacity)
	}
	return nil
}

// smokeGate is the CI assertion: an overloaded, admission-controlled
// gateway must shed (the queue is bounded) and what it admits must
// meet the p99 SLO (the queue is short).
func smokeGate(o options, r result, capacity float64) error {
	if !o.admission {
		return fmt.Errorf("smoke: run had no admission control")
	}
	if r.shed == 0 {
		return fmt.Errorf("smoke: overloaded gateway shed nothing (offered %.0f rps over %.0f rps capacity)",
			r.offeredRPS, capacity)
	}
	if sloMs := o.slo.Seconds() * 1e3; r.p99Ms > sloMs {
		return fmt.Errorf("smoke: admitted p99 %.1fms exceeds SLO %.0fms", r.p99Ms, sloMs)
	}
	fmt.Printf("smoke ok: shed %d, admitted p99 %.1fms within %v SLO\n", r.shed, r.p99Ms, o.slo)
	return nil
}

// stack is the in-process target: one runtime+gateway, reached over
// loopback TCP (raw RPC) or through one ingress node (-http).
type stack struct {
	rt      *runtime.Runtime
	gw      *runtime.Gateway
	inj     *chaos.Injector
	call    func(ctx context.Context) outcome // one request against the target
	report  func() string                     // target counters for the summary line
	closers []func()
}

func newStack(o options) (*stack, error) {
	rcfg := runtime.DefaultConfig()
	rcfg.Retries = 0
	// The runtime semaphore IS the backend's finite capacity (workers ×
	// 1/exec rps). Without admission control the gateway lets arrivals
	// pile up on this semaphore unboundedly. With admission on,
	// MaxConcurrent equals the semaphore, so admitted work never queues
	// behind it.
	rcfg.MaxInFlight = o.workers
	rt := runtime.New(rcfg, store.NewDB())
	exec := o.exec
	rt.Register("work", func(ctx context.Context, in []byte) ([]byte, error) {
		select {
		case <-time.After(exec):
			return in, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	gcfg := runtime.DefaultGatewayConfig()
	gcfg.StepRespawns = 0
	if o.admission {
		gcfg.Overload = &runtime.AdmissionConfig{
			MaxConcurrent: o.workers,
			QueueLen:      o.queue,
			RetryAfter:    50 * time.Millisecond,
		}
	}
	g := runtime.NewGatewayConfig(rt, gcfg)
	g.Expose("work", "work")

	s := &stack{
		rt:     rt,
		gw:     g,
		inj:    chaos.NewInjector(o.seed, chaos.Config{}),
		report: func() string { return "" },
	}
	connect := s.connectRPC
	if o.httpMode {
		connect = s.connectHTTP
	}
	if err := connect(o); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// connectRPC serves the gateway on loopback TCP and spreads calls over
// -conns client connections.
func (s *stack) connectRPC(o options) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.closers = append(s.closers, func() { ln.Close() })
	go s.gw.Server().Serve(ln)

	// Size the caller pools so the client never blocks an arrival: the
	// deadline bounds in-flight requests to ~rate×deadline, and the shed
	// fast path keeps the true number far lower.
	const callers = 2048
	cls := make([]*rpc.Client, o.conns)
	for i := range cls {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		cls[i] = rpc.NewClient(conn, callers)
		s.closers = append(s.closers, func() { cls[i].Close() })
	}
	var next atomic.Uint64
	s.call = func(ctx context.Context) outcome {
		_, err := cls[next.Add(1)%uint64(len(cls))].Call(ctx, "work", []byte("x"))
		switch {
		case err == nil:
			return outOK
		case rpc.IsShed(err):
			return outShed
		case rpc.IsDeadlineExceeded(err) || ctx.Err() != nil:
			return outTimeout
		}
		return outErr
	}
	return nil
}

// connectHTTP fronts the gateway with one ingress node on loopback
// HTTP and posts unique payloads, so nothing coalesces and every POST
// is one dispatch.
func (s *stack) connectHTTP(o options) error {
	// The ring's consumer pool bounds concurrent handlers on the
	// co-located fast path. It must be much larger than the admission
	// lane (MaxConcurrent + QueueLen), or excess arrivals queue
	// invisibly in ring slots instead of reaching admission's bounded
	// queue and shedding with Retry-After.
	l := runtime.NewLinker(runtime.LinkerOptions{
		Ring: rpc.RingOptions{Slots: 4096, Consumers: 512},
	})
	s.closers = append(s.closers, func() { l.Close() })
	link, err := l.Connect(runtime.Peer{Gateway: s.gw})
	if err != nil {
		return err
	}
	ing, err := ingress.NewServer(ingress.Options{
		Dispatcher: link,
		Timeout:    o.deadline + time.Second,
	})
	if err != nil {
		return err
	}
	s.closers = append(s.closers, ing.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: ing}
	s.closers = append(s.closers, func() { srv.Close() })
	go srv.Serve(ln)

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4096,
		MaxIdleConnsPerHost: 2048,
		MaxConnsPerHost:     4096,
		IdleConnTimeout:     time.Minute,
	}}
	s.closers = append(s.closers, client.CloseIdleConnections)
	url := "http://" + ln.Addr().String() + "/do/work?then=true"
	var next atomic.Uint64
	s.call = func(ctx context.Context) outcome {
		payload := "u-" + strconv.FormatUint(next.Add(1), 10)
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
			return outShed
		case http.StatusGatewayTimeout:
			return outTimeout
		}
		return outErr
	}
	s.report = func() string {
		st := ing.Stats()
		return fmt.Sprintf(" | ingress posted %d dispatched %d coalesced %d", st.Posted, st.Dispatched, st.Coalesced)
	}
	return nil
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.gw.Close()
	s.rt.Close()
}

// calibrate measures closed-loop saturation: exactly MaxConcurrent
// outstanding requests (no queueing, no shedding) for a short window.
// This is the goodput ceiling the open-loop run is scored against.
func (s *stack) calibrate(o options) float64 {
	const window = time.Second
	var done atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
				if s.call(rctx) == outOK {
					done.Add(1)
				}
				rcancel()
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// openLoop drives the target at a constant arrival rate for o.duration
// and classifies every response.
func (s *stack) openLoop(o options, rate float64) result {
	burstOp := chaos.BurstOp("loadgen")
	if o.burst > 0 {
		s.inj.Burst(burstOp, o.duration/2, o.burst)
	}
	interval := time.Duration(float64(time.Second) / rate)
	var (
		offered, ok, shed, timeout, errs atomic.Int64
		latMu                            sync.Mutex
		lat                              = &stats.Sample{}
		wg                               sync.WaitGroup
	)
	fire := func(at time.Time) {
		offered.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), at.Add(o.deadline))
			defer cancel()
			out := s.call(ctx)
			elapsed := time.Since(at) // from scheduled arrival: no omission
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
		}()
	}

	start := time.Now()
	end := start.Add(o.duration)
	for i := 0; ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if at.After(end) {
			break
		}
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		// A scheduled arrival may ride with a chaos flash crowd: the burst
		// requests share the tick's arrival instant.
		for n := s.inj.BurstSize(burstOp); n > 0; n-- {
			fire(at)
		}
		fire(at)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	latMu.Lock()
	defer latMu.Unlock()
	return result{
		offeredRPS: float64(offered.Load()) / elapsed,
		goodputRPS: float64(ok.Load()) / elapsed,
		ok:         ok.Load(),
		shed:       shed.Load(),
		timeout:    timeout.Load(),
		errs:       errs.Load(),
		p50Ms:      lat.Percentile(50) * 1e3,
		p99Ms:      lat.Percentile(99) * 1e3,
	}
}
