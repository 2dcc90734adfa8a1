// Package runtime is a real, in-process serverless runtime: the
// executable counterpart of the simulated platform in internal/faas.
// Functions are Go closures executed on goroutines with the semantics
// the paper's backend provides — bounded user concurrency, cold/warm
// container instances with keep-alive reuse (§4.3), inter-function data
// exchange through the revisioned document store (OpenWhisk's CouchDB
// pattern, §3.3) or in-memory when chained in the same instance,
// automatic retry of failed functions (§3.2), and straggler duplicates
// that race the original and keep the first result (§4.6).
//
// It exists so HiveMind applications can be *run*, not only simulated:
// the examples and the cross-tier API stubs the compiler generates bind
// against this runtime for cloud tiers and internal/rpc for edge tiers.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hivemind/internal/stats"
	"hivemind/internal/store"
)

// Function is a serverless function body. Implementations must be safe
// for concurrent invocation and idempotent if straggler duplication is
// enabled.
type Function func(ctx context.Context, input []byte) ([]byte, error)

// Injector is the fault-injection hook the runtime consults before each
// execution attempt (op "invoke/<fn>"): a non-nil error stands in for a
// crashed container, exercising the §3.2 respawn path on the live
// runtime. chaos.Injector satisfies it.
type Injector interface {
	Fault(op string) error
}

// Config tunes the runtime.
type Config struct {
	// MaxInFlight bounds concurrent executions (default 1000, the AWS
	// Lambda default the paper cites).
	MaxInFlight int
	// KeepAlive is how long an idle instance survives before teardown
	// (0: torn down immediately — stock OpenWhisk behaviour).
	KeepAlive time.Duration
	// Retries is how many times a failed function is respawned before
	// the error is surfaced (§3.2: OpenWhisk respawns failed tasks).
	Retries int
	// StragglerAfter, if positive, spawns a duplicate execution when the
	// original has run this long; the first finisher wins (§4.6).
	StragglerAfter time.Duration
	// Injector, if non-nil, is consulted before every execution attempt
	// and store exchange so chaos tests can kill live invocations.
	Injector Injector
}

// DefaultConfig mirrors the HiveMind backend settings.
func DefaultConfig() Config {
	return Config{
		MaxInFlight: 1000,
		KeepAlive:   20 * time.Second,
		Retries:     3,
	}
}

// Stats are the runtime's counters.
type Stats struct {
	Invocations uint64
	ColdStarts  uint64
	WarmStarts  uint64
	Retries     uint64
	Duplicates  uint64
	// Killed counts executions the fault injector crashed.
	Killed uint64
	// StoreDegraded counts chain handoffs that fell back to in-memory
	// data because the document store refused the write (graceful
	// degradation under store faults).
	StoreDegraded uint64
}

// Runtime executes registered functions.
type Runtime struct {
	cfg Config

	mu    sync.RWMutex
	fns   map[string]Function
	warm  map[string][]*instance
	sem   chan struct{}
	db    *store.DB
	stats struct {
		invocations   atomic.Uint64
		cold          atomic.Uint64
		warmHits      atomic.Uint64
		retries       atomic.Uint64
		duplicates    atomic.Uint64
		killed        atomic.Uint64
		storeDegraded atomic.Uint64
	}
	closed atomic.Bool
}

// instance is a warm "container": in-process, it is just an identity
// that carries reuse bookkeeping. idle is when it was parked; past
// KeepAlive it counts as torn down.
type instance struct {
	fn   string
	idle time.Time
}

// New creates a runtime backed by the given document store (nil: a
// fresh in-memory store).
func New(cfg Config, db *store.DB) *Runtime {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1000
	}
	if db == nil {
		db = store.NewDB()
	}
	return &Runtime{
		cfg:  cfg,
		fns:  map[string]Function{},
		warm: map[string][]*instance{},
		sem:  make(chan struct{}, cfg.MaxInFlight),
		db:   db,
	}
}

// Store exposes the runtime's document store (the inter-function data
// plane).
func (r *Runtime) Store() *store.DB { return r.db }

// Register binds a function body to a name.
func (r *Runtime) Register(name string, f Function) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fns[name] = f
}

// Stats returns a snapshot of the counters.
func (r *Runtime) Stats() Stats {
	return Stats{
		Invocations:   r.stats.invocations.Load(),
		ColdStarts:    r.stats.cold.Load(),
		WarmStarts:    r.stats.warmHits.Load(),
		Retries:       r.stats.retries.Load(),
		Duplicates:    r.stats.duplicates.Load(),
		Killed:        r.stats.killed.Load(),
		StoreDegraded: r.stats.storeDegraded.Load(),
	}
}

// Result reports one invocation.
type Result struct {
	Output  []byte
	Cold    bool
	Retries int
	Latency time.Duration
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("runtime: closed")

// acquireInstance takes a warm instance or creates one.
func (r *Runtime) acquireInstance(name string) (*instance, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := r.warm[name]
	now := time.Now()
	for len(list) > 0 {
		inst := list[len(list)-1]
		list = list[:len(list)-1]
		if now.Sub(inst.idle) > r.cfg.KeepAlive {
			continue
		}
		r.warm[name] = list
		return inst, true
	}
	r.warm[name] = list
	return &instance{fn: name}, false
}

// releaseInstance parks an instance for reuse under keep-alive.
func (r *Runtime) releaseInstance(inst *instance) {
	if r.cfg.KeepAlive <= 0 || r.closed.Load() {
		return
	}
	inst.idle = time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.warm[inst.fn] = append(r.warm[inst.fn], inst)
}

// Invoke runs a function synchronously with retries and optional
// straggler duplication.
func (r *Runtime) Invoke(ctx context.Context, name string, input []byte) (Result, error) {
	if r.closed.Load() {
		return Result{}, ErrClosed
	}
	r.mu.RLock()
	fn, ok := r.fns[name]
	r.mu.RUnlock()
	if !ok {
		return Result{}, fmt.Errorf("runtime: function %q not registered", name)
	}

	start := time.Now()
	r.stats.invocations.Add(1)

	// The runtime layer's span covers the whole invocation — admission
	// to the in-flight semaphore, cold/warm start, every attempt.
	tt := taskTraceFrom(ctx)
	if tt != nil {
		sp := tt.span("invoke "+name, string(stats.StageExecution), "runtime")
		defer sp.End()
	}

	// Try a free slot first: ctx.Done allocates a cancelCtx's channel.
	select {
	case r.sem <- struct{}{}:
	default:
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	defer func() { <-r.sem }()

	var res Result
	attempts := r.cfg.Retries + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		inst, warm := r.acquireInstance(name)
		if warm {
			r.stats.warmHits.Add(1)
		} else {
			r.stats.cold.Add(1)
			res.Cold = true
		}
		var out []byte
		var err error
		if r.cfg.Injector != nil {
			// A consulted fault stands in for a crashed container: the
			// attempt dies before the body runs (§3.2 failure mode).
			if ferr := r.cfg.Injector.Fault("invoke/" + name); ferr != nil {
				r.stats.killed.Add(1)
				err = ferr
			}
		}
		if err == nil {
			// Only the function body counts as the execution stage;
			// the rest of the attempt falls to management.
			stop := tt.stages().track(stats.StageExecution)
			out, err = r.execute(ctx, fn, input)
			stop()
		}
		r.releaseInstance(inst)
		if err == nil {
			res.Output = out
			res.Latency = time.Since(start)
			res.Retries = attempt
			return res, nil
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			break
		}
		if attempt < attempts-1 {
			r.stats.retries.Add(1)
		}
	}
	res.Latency = time.Since(start)
	return res, fmt.Errorf("runtime: %s failed after %d attempts: %w", name, attempts, lastErr)
}

// execute runs one attempt, racing a straggler duplicate if configured.
func (r *Runtime) execute(ctx context.Context, fn Function, input []byte) ([]byte, error) {
	if r.cfg.StragglerAfter <= 0 {
		return safeCall(ctx, fn, input)
	}
	type outcome struct {
		out []byte
		err error
	}
	results := make(chan outcome, 2)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	launch := func() {
		out, err := safeCall(cctx, fn, input)
		select {
		case results <- outcome{out, err}:
		default:
		}
	}
	go launch()
	dup := time.AfterFunc(r.cfg.StragglerAfter, func() {
		r.stats.duplicates.Add(1)
		go launch()
	})
	defer dup.Stop()
	select {
	case o := <-results:
		return o.out, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// safeCall isolates panics in function bodies, converting them to
// errors (a crashed container must not take the invoker down).
func safeCall(ctx context.Context, fn Function, input []byte) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runtime: function panicked: %v", p)
		}
	}()
	return fn(ctx, input)
}

// Go runs an invocation asynchronously.
func (r *Runtime) Go(ctx context.Context, name string, input []byte) <-chan InvocationOutcome {
	ch := make(chan InvocationOutcome, 1)
	go func() {
		res, err := r.Invoke(ctx, name, input)
		ch <- InvocationOutcome{Result: res, Err: err}
	}()
	return ch
}

// InvocationOutcome pairs a result with its error for async delivery.
type InvocationOutcome struct {
	Result Result
	Err    error
}

// Chain runs a pipeline of functions, passing each output to the next
// through the document store (each tier's output is persisted under
// "out/<fn>/<chainID>", CouchDB-style) and returning the final output.
// When the store refuses the write (an injected database fault), the
// handoff degrades gracefully to in-memory data so the chain survives —
// the same hide-the-failure behaviour the faas model gives respawned
// tasks.
func (r *Runtime) Chain(ctx context.Context, chainID string, names []string, input []byte) ([]byte, error) {
	if len(names) == 0 {
		return nil, errors.New("runtime: empty chain")
	}
	data := input
	for _, name := range names {
		res, err := r.Invoke(ctx, name, data)
		if err != nil {
			return nil, fmt.Errorf("chain %s at tier %s: %w", chainID, name, err)
		}
		key := fmt.Sprintf("out/%s/%s", name, chainID)
		data, err = r.exchange(ctx, key, res.Output)
		if err != nil {
			return nil, fmt.Errorf("chain %s: persisting %s: %w", chainID, key, err)
		}
	}
	return data, nil
}

// exchangeAttempts bounds store retries during a chain handoff,
// mirroring the §3.2 attempt cap.
const exchangeAttempts = 3

// exchange persists a tier's output and reads it back (the CouchDB
// round-trip of §3.3). Store faults are retried at once and ultimately
// degrade to the in-memory value.
func (r *Runtime) exchange(ctx context.Context, key string, output []byte) ([]byte, error) {
	defer taskTraceFrom(ctx).stages().track(stats.StageDataIO)()
	var lastErr error
	for attempt := 0; attempt < exchangeAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, lastErr = r.db.Force(key, output); lastErr != nil {
			continue
		}
		doc, err := r.db.Get(key)
		if err != nil {
			lastErr = err
			continue
		}
		return doc.Body, nil
	}
	// The store stayed faulty: hand the data off in memory rather than
	// failing a chain whose compute already succeeded.
	r.stats.storeDegraded.Add(1)
	return output, nil
}

// FanOut invokes one function over many inputs concurrently (intra-task
// parallelism, §3.2) and returns outputs in input order.
func (r *Runtime) FanOut(ctx context.Context, name string, inputs [][]byte) ([][]byte, error) {
	outs := make([][]byte, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		i, in := i, in
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Invoke(ctx, name, in)
			outs[i], errs[i] = res.Output, err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// Close stops accepting invocations and tears down warm instances.
func (r *Runtime) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.warm = map[string][]*instance{}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
