package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"hivemind/internal/controller"
	"hivemind/internal/ingress"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/store"
)

// opHeader carries the op id to the ingress span wrapper; the layers
// below recover it from the payload's first 8 bytes.
const opHeader = "X-Bench-Op"

// traceFn wraps a runtime.Function with a runtime.fn span.
func traceFn(tr *tracer, fn runtime.Function) runtime.Function {
	if tr == nil {
		return fn
	}
	return func(ctx context.Context, in []byte) ([]byte, error) {
		defer tr.begin(layerFn, opOf(in))()
		return fn(ctx, in)
	}
}

// traceInterceptor times the server side of the rpc hop: everything
// the gateway does for a request, handler included.
func traceInterceptor(tr *tracer) rpc.ServerInterceptor {
	return func(ctx context.Context, method string, payload []byte, next rpc.HandlerCtx) ([]byte, error) {
		_, body, _ := runtime.DecodeTask(payload)
		defer tr.begin(layerGateway, opOf(body))()
		return next(ctx, payload)
	}
}

// traceDispatcher times ingress's call into the rpc link.
func traceDispatcher(tr *tracer, next ingress.Dispatcher) ingress.Dispatcher {
	if tr == nil {
		return next
	}
	return ingress.DispatchFunc(func(ctx context.Context, method string, payload []byte) ([]byte, error) {
		defer tr.begin(layerLink, opOf(payload))()
		return next.Call(ctx, method, payload)
	})
}

// traceHandler times ingress.Server.ServeHTTP. The client sets the op
// header only on requests of sampled ops.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	if tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get(opHeader); h != "" {
			if op, err := strconv.ParseUint(h, 10, 64); err == nil {
				defer tr.begin(layerIngress, op)()
			}
		}
		next.ServeHTTP(w, r)
	})
}

// stateKeys are the documents the hash function forces and reads back.
var stateKeys = func() (k [256]string) {
	for i := range k {
		k[i] = fmt.Sprintf("state/%03d", i)
	}
	return k
}()

// httpStack is one co-located node: ingress.Server → Linker shm ring →
// Gateway (admission configured, never saturated) → function →
// in-memory store.DB, with a metrics.Registry attached the way
// cmd/hivemind-live attaches it.
type httpStack struct {
	rt     *runtime.Runtime
	gw     *runtime.Gateway
	linker *runtime.Linker
	ing    *ingress.Server
	srv    *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

// newHTTPStack boots the node on a loopback listener. withRegistry
// false leaves every monitor nil (the metrics.http_null_cost_us pair).
func newHTTPStack(conns int, withRegistry bool, tr *tracer) (*httpStack, error) {
	db := store.NewDB()
	rcfg := runtime.DefaultConfig()
	rcfg.Retries = 0
	rt := runtime.New(rcfg, db)
	// echo is the null function: the stack around it does all the work.
	rt.Register("echo", traceFn(tr, func(_ context.Context, in []byte) ([]byte, error) {
		return in, nil
	}))
	// hash does real work and touches the store: digest the payload,
	// force a state document, read it back.
	rt.Register("hash", traceFn(tr, func(_ context.Context, in []byte) ([]byte, error) {
		sum := sha256.Sum256(in)
		key := stateKeys[sum[0]]
		if _, err := db.Force(key, sum[:]); err != nil {
			return nil, err
		}
		doc, err := db.Get(key)
		if err != nil {
			return nil, err
		}
		_ = doc // another op may have forced the key since; only the read matters
		return sum[:], nil
	}))

	gcfg := runtime.DefaultGatewayConfig()
	gcfg.StepRespawns = 0
	// Far more slots than the ≤4 closed-loop clients or the open loop's
	// ~30 % load can fill: admission runs on every request, never sheds.
	gcfg.Overload = &runtime.AdmissionConfig{MaxConcurrent: 256, QueueLen: 1024}
	g := runtime.NewGatewayConfig(rt, gcfg)
	g.Expose("echo", "echo")
	g.Expose("hash", "hash")
	g.ExposeBatch()
	if tr != nil {
		g.Server().SetInterceptor(traceInterceptor(tr))
	}

	opts := ingress.Options{}
	if withRegistry {
		reg := metrics.NewRegistry()
		db.SetMonitor(reg)
		g.SetMonitor(reg)
		opts.Monitor = reg
	}

	l := runtime.NewLinker(runtime.LinkerOptions{
		Ring: rpc.RingOptions{Slots: 1024, Consumers: 64},
	})
	link, err := l.Connect(runtime.Peer{Gateway: g})
	if err != nil {
		return nil, err
	}
	opts.Dispatcher = traceDispatcher(tr, link)
	// Results are collected at once; a short TTL keeps the id table (and
	// the resident set) proportional to a few seconds of traffic, with
	// the expiry sweep inside the measured path.
	opts.TTL = 2 * time.Second
	ing, err := ingress.NewServer(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpStack{
		rt: rt, gw: g, linker: l, ing: ing,
		srv:    &http.Server{Handler: traceHandler(tr, ing)},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     time.Minute,
		}},
	}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *httpStack) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
	<-s.served
	s.ing.Close()
	s.linker.Close()
	s.gw.Close()
	s.rt.Close()
}

// counters reads the layers' public counters after a run.
func (s *httpStack) counters(m metricSet) {
	st := s.ing.Stats()
	m.set("ingress.posted", float64(st.Posted))
	m.set("ingress.dispatched", float64(st.Dispatched))
	if st.Posted > 0 {
		m.set("ingress.coalesced_share", float64(st.Coalesced)/float64(st.Posted))
	}
	m.set("ingress.failed", float64(st.Failed+st.Shed))
	m.set("rpc.dropped_expired", float64(s.gw.Server().DroppedExpired()))
	as := s.gw.AdmissionStats()
	m.set("runtime.admitted", float64(as.Admitted))
	m.set("runtime.shed_full", float64(as.ShedFull))
	m.set("runtime.shed_codel", float64(as.ShedCoDel))
	rs := s.rt.Stats()
	m.set("runtime.invocations", float64(rs.Invocations))
	m.set("runtime.retries", float64(rs.Retries))
	m.set("store.docs", float64(s.rt.Store().Len()))
}

// chainSteps are the durable chain's tiers: each appends its byte, so
// a reply proves every step ran once, in order.
var chainSteps = []string{"s0", "s1", "s2"}

const chainSuffix = "abc"

// traceTracker times the gateway's calls into the replicated task
// table (controller.Replica as runtime.TaskTracker).
type traceTracker struct {
	tr   *tracer
	next runtime.TaskTracker
}

// begin opens a controller.track span; task ids are op ids in decimal.
func (t traceTracker) begin(id string) (end func()) {
	op, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		return noSpan
	}
	return t.tr.begin(layerTrack, op)
}

func (t traceTracker) TaskStarted(id, method string) {
	defer t.begin(id)()
	t.next.TaskStarted(id, method)
}

func (t traceTracker) TaskStep(id string, step int) {
	defer t.begin(id)()
	t.next.TaskStep(id, step)
}

func (t traceTracker) TaskFinished(id string) {
	defer t.begin(id)()
	t.next.TaskFinished(id)
}

// fleet is a replica set wired as cmd/hivemind-live wires it: each
// controller.Replica fronts a gateway (replica admission gate, replica
// as TaskTracker, fenced checkpoint log) over one shared durable store,
// everything on loopback TCP.
type fleet struct {
	dir      string
	db       *store.DB
	reg      *metrics.Registry
	replicas []*controller.Replica
	rts      []*runtime.Runtime
	gws      []*runtime.Gateway
	lns      []net.Listener
	fc       *rpc.FailoverClient
}

// newFleet opens the store under dir, boots n replicas and waits for a
// leader.
func newFleet(dir string, n int, seed int64, tr *tracer) (*fleet, error) {
	f := &fleet{dir: dir, reg: metrics.NewRegistry()}
	opts := store.DefaultDurableOptions()
	opts.Fsync = store.FsyncBatch
	opts.Monitor = f.reg
	db, _, err := store.OpenDurable(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("open durable store %s: %w", dir, err)
	}
	f.db = db

	ctrlLns := make([]net.Listener, n)
	ctrlAddrs := make([]string, n)
	for i := range ctrlLns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		ctrlLns[i], ctrlAddrs[i] = ln, ln.Addr().String()
		f.lns = append(f.lns, ln)
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		rcfg := runtime.DefaultConfig()
		rcfg.Retries = 0
		rt := runtime.New(rcfg, db)
		for s, name := range chainSteps {
			tag := chainSuffix[s]
			rt.Register(name, traceFn(tr, func(_ context.Context, in []byte) ([]byte, error) {
				return append(append(make([]byte, 0, len(in)+1), in...), tag), nil
			}))
		}

		var gwPtr atomic.Pointer[runtime.Gateway]
		ccfg := controller.DefaultReplicaConfig(i, n, seed)
		ccfg.InitialTerm = db.Fence()
		ccfg.OnPromote = func(term uint64) { db.RaiseFence(term) }
		ccfg.Recover = func(ctx context.Context) (int, error) {
			if g := gwPtr.Load(); g != nil {
				return g.Recover(ctx)
			}
			return 0, nil
		}
		peers := make(map[int]func() (net.Conn, error), n-1)
		for j := 0; j < n; j++ {
			if j != i {
				addr := ctrlAddrs[j]
				peers[j] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
			}
		}
		rep := controller.NewReplica(ccfg, peers, controller.NewMonitor())

		gcfg := runtime.DefaultGatewayConfig()
		gcfg.Timeout = 10 * time.Second
		gcfg.RespawnDelay = 20 * time.Millisecond
		gcfg.Checkpoints = store.NewFencedCheckpointLog(db, rep.LeaderTerm)
		gcfg.OnFenced = rep.StepDown
		gcfg.Admission = rep.Admission()
		gcfg.Tracker = rep
		if tr != nil {
			gcfg.Tracker = traceTracker{tr: tr, next: rep}
		}
		g := runtime.NewGatewayConfig(rt, gcfg)
		g.SetMonitor(f.reg)
		g.ExposeChain("chain3", chainSteps)
		g.ExposeBatch()
		if tr != nil {
			g.Server().SetInterceptor(traceInterceptor(tr))
		}
		gwPtr.Store(g)

		gln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		addrs[i] = gln.Addr().String()
		go g.Server().Serve(gln)
		go rep.Server().Serve(ctrlLns[i])
		f.replicas = append(f.replicas, rep)
		f.rts = append(f.rts, rt)
		f.gws = append(f.gws, g)
	}

	for _, rep := range f.replicas {
		rep.Start()
	}
	if !f.waitLeader(10 * time.Second) {
		f.close()
		return nil, fmt.Errorf("fleet: no leader elected")
	}
	f.fc = rpc.DialFailover(addrs, rpc.FailoverOptions{
		Attempts:     20 * n,
		RetryBackoff: 15 * time.Millisecond,
		CallTimeout:  5 * time.Second,
	})
	return f, nil
}

func (f *fleet) waitLeader(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, rep := range f.replicas {
			if rep.IsLeader() {
				return true
			}
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// close stops every replica, gateway and runtime, then syncs and
// closes the store. The directory is left for the caller to check.
func (f *fleet) close() error {
	if f.fc != nil {
		f.fc.Close()
	}
	f.killReplicas()
	for _, g := range f.gws {
		g.Close()
	}
	for _, rt := range f.rts {
		rt.Close()
	}
	for _, ln := range f.lns {
		ln.Close()
	}
	return f.db.Close()
}

func (f *fleet) killReplicas() {
	for _, rep := range f.replicas {
		rep.Kill()
	}
}

func (f *fleet) counters(m metricSet) {
	m.set("store.wal_records", f.reg.Counter(store.MetricWALAppend))
	m.set("store.docs", float64(f.db.Len()))
	var inv, retries uint64
	for _, rt := range f.rts {
		st := rt.Stats()
		inv += st.Invocations
		retries += st.Retries
	}
	m.set("runtime.invocations", float64(inv))
	m.set("runtime.retries", float64(retries))
	var dropped uint64
	for _, g := range f.gws {
		dropped += g.Server().DroppedExpired()
	}
	m.set("rpc.dropped_expired", float64(dropped))
}

// scratchDir makes a fresh directory under the benchmark's output
// directory: the benchmark writes nowhere else.
func scratchDir(c *config, prefix string) (string, error) {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.outDir, prefix)
}
