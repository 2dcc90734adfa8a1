package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"hivemind/internal/accel"
	"hivemind/internal/apps"
	"hivemind/internal/controller"
	"hivemind/internal/dsl"
	"hivemind/internal/experiments"
	"hivemind/internal/geo"
	"hivemind/internal/ingress"
	"hivemind/internal/metrics"
	"hivemind/internal/netsim"
	"hivemind/internal/platform"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/scenario"
	"hivemind/internal/sim"
	"hivemind/internal/store"
	"hivemind/internal/synth"
)

// This file is measurement method (b): direct drives of each layer's
// public functions, from outside, with inputs generated from the seed.
// Every drive does a fixed number of calls (× -scale), so two commits
// do identical work. The traced run of every workload runs all of
// them: they cost ~15 s and do not depend on the workload.

const driveBatches = 5

// firstErr keeps the first error of a drive whose calls may run on
// several goroutines.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// layerDrives runs every direct drive and stores its metrics.
func layerDrives(c *config, m metricSet) error {
	pool := newPayloadPool(c.seed)
	for _, drive := range []func(*config, *payloadPool, metricSet) error{
		driveIngress, driveRPC, driveRuntime, driveStore, driveController,
		driveMetrics, driveSim, driveSwarmParts, driveExperiments,
	} {
		if err := drive(c, pool, m); err != nil {
			return err
		}
	}
	return nil
}

func driveIngress(c *config, pool *payloadPool, m metricSet) error {
	// ServeHTTP on a recorder with an in-process echo dispatcher:
	// ingress alone, no sockets, no rpc.
	ing, err := ingress.NewServer(ingress.Options{
		Dispatcher: ingress.DispatchFunc(func(_ context.Context, _ string, p []byte) ([]byte, error) { return p, nil }),
	})
	if err != nil {
		return err
	}
	defer ing.Close()
	buf := make([]byte, 64)
	var failed error
	var lastID string
	ns, allocs := timeOps(driveBatches, c.scaled(20000), func(i int) {
		body := pool.fill(buf, uint64(i), 64)
		w := httptest.NewRecorder()
		ing.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/do/echo?then=true", strings.NewReader(string(body))))
		if w.Code != http.StatusOK || w.Body.String() != string(body) {
			failed = fmt.Errorf("ingress drive: status %d", w.Code)
		}
		lastID = w.Header().Get(ingress.ResultIDHeader)
	})
	if failed != nil {
		return failed
	}
	m.set("ingress.serve_direct_ns", ns)
	m.set("ingress.serve_direct_allocs", allocs)
	ns, _ = timeOps(driveBatches, c.scaled(20000), func(int) {
		w := httptest.NewRecorder()
		ing.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/then/"+lastID, nil))
		if w.Code != http.StatusOK {
			failed = fmt.Errorf("ingress then drive: status %d", w.Code)
		}
	})
	m.set("ingress.then_direct_ns", ns)
	return failed
}

// tcpClient dials srv over loopback TCP.
func tcpClient(srv *rpc.Server, callers int) (*rpc.Client, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln) // srv.Close closes the listener
	return rpc.Dial(ln.Addr().String(), callers)
}

func driveRPC(c *config, pool *payloadPool, m metricSet) error {
	srv := rpc.NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	defer srv.Close()
	var failed firstErr
	check := func(_ []byte, err error) { failed.set(err) }
	small := pool.fill(make([]byte, 64), 1, 64)
	large := pool.fill(make([]byte, maxPayload), 2, maxPayload)

	ring, err := rpc.NewRing(srv, rpc.RingOptions{})
	if err != nil {
		return err
	}
	ns, allocs := timeOps(driveBatches, c.scaled(200000), func(int) { check(ring.CallSync("echo", small)) })
	m.set("rpc.ring_echo_ns", ns)
	m.set("rpc.ring_echo_allocs", allocs)
	hw := accel.NewFabric().RPCRoundTripS(64) * 1e9 // the paper's 2.1 µs, from the accel model
	m.set("accel.hw_rtt_ratio_ring", ns/hw)

	cl, err := tcpClient(srv, 64)
	if err != nil {
		return err
	}
	defer cl.Close()
	// The legacy whole-connection client: ROADMAP item 1's regression row.
	ns, _ = timeOps(driveBatches, c.scaled(10000), func(int) { check(cl.CallSync("echo", small)) })
	m.set("rpc.tcp_echo_ns", ns)
	m.set("accel.hw_rtt_ratio_tcp", ns/hw)

	stream := cl.Stream(8)
	ns, allocs = timeOps(driveBatches, c.scaled(10000), func(int) { check(stream.CallSync("echo", small)) })
	m.set("rpc.mux_echo_ns", ns)
	m.set("rpc.mux_echo_allocs", allocs)
	ns, _ = timeOps(driveBatches, c.scaled(2000), func(int) { check(stream.CallSync("echo", large)) })
	m.set("rpc.large_echo_us", ns/1e3)

	// Pipelined: 32 streams per core issue synchronous calls at once
	// over the one connection, so frames coalesce into shared writes.
	const perStream = 500
	streams := 32 * c.nproc
	n := c.scaled(perStream)
	d := timeRuns(driveBatches, func() {
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st := cl.Stream(8)
				for i := 0; i < n; i++ {
					if _, err := st.CallSync("echo", small); err != nil {
						failed.set(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
	m.set("rpc.mux_pipelined_ns", float64(d)/float64(streams*n))
	return failed.err
}

func driveRuntime(c *config, pool *payloadPool, m metricSet) error {
	var failed firstErr
	check := failed.set
	rcfg := runtime.DefaultConfig()
	rcfg.Retries = 0
	rt := runtime.New(rcfg, store.NewDB())
	defer rt.Close()
	rt.Register("echo", func(_ context.Context, in []byte) ([]byte, error) { return in, nil })
	for s, name := range chainSteps {
		tag := chainSuffix[s]
		rt.Register(name, func(_ context.Context, in []byte) ([]byte, error) {
			return append(append(make([]byte, 0, len(in)+1), in...), tag), nil
		})
	}
	ctx := context.Background()
	small := pool.fill(make([]byte, 64), 1, 64)
	ns, allocs := timeOps(driveBatches, c.scaled(200000), func(int) {
		_, err := rt.Invoke(ctx, "echo", small)
		check(err)
	})
	m.set("runtime.invoke_ns", ns)
	m.set("runtime.invoke_allocs", allocs)

	input := pool.fill(make([]byte, chainInput), 3, chainInput)
	ns, _ = timeOps(driveBatches, c.scaled(8000), func(i int) {
		_, err := rt.Chain(ctx, taskID(uint64(i)), chainSteps, input)
		check(err)
	})
	m.set("runtime.chain3_us", ns/1e3)

	// Link.Call into an Exposed null function over the shm ring, with
	// admission off and on. Batches alternate between the two gateways,
	// so drift hits both sides; the difference is admission's price.
	var links [2]*runtime.Link
	for i, overload := range []*runtime.AdmissionConfig{nil, {MaxConcurrent: 256, QueueLen: 1024}} {
		gcfg := runtime.DefaultGatewayConfig()
		gcfg.Overload = overload
		g := runtime.NewGatewayConfig(rt, gcfg)
		defer g.Close()
		g.Expose("echo", "echo")
		l := runtime.NewLinker(runtime.LinkerOptions{})
		defer l.Close()
		link, err := l.Connect(runtime.Peer{Gateway: g})
		if err != nil {
			return err
		}
		links[i] = link
	}
	var per [2][]float64
	for b := 0; b < 2*driveBatches; b++ {
		side := b % 2
		ns, _ := timeOps(1, c.scaled(40000), func(int) {
			_, err := links[side].Call(ctx, "echo", small)
			check(err)
		})
		per[side] = append(per[side], ns)
	}
	off, on := median(per[0]), median(per[1])
	m.set("runtime.link_call_ns", off)
	m.set("runtime.admission_ns", on-off)
	return failed.err
}

func driveStore(c *config, pool *payloadPool, m metricSet) error {
	var failed firstErr
	check := failed.set
	small := pool.fill(make([]byte, 64), 1, 64)
	input := pool.fill(make([]byte, chainInput), 3, chainInput)
	keys := make([]string, 1<<14)
	for i := range keys {
		keys[i] = fmt.Sprintf("doc/%05d", i)
	}

	db := store.NewDB()
	ns, _ := timeOps(driveBatches, c.scaled(200000), func(i int) {
		_, err := db.Force(keys[i%len(keys)], small)
		check(err)
	})
	m.set("store.put_ns", ns)
	ns, _ = timeOps(driveBatches, c.scaled(200000), func(i int) {
		_, err := db.Get(keys[i%len(keys)])
		check(err)
	})
	m.set("store.get_ns", ns)

	dir, err := scratchDir(c, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The WAL alone: append with no fsync, then append + fsync.
	wal, _, err := store.OpenWAL(filepath.Join(dir, "bare.wal"), store.WALOptions{Fsync: store.FsyncNever}, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	ns, _ = timeOps(driveBatches, c.scaled(20000), func(int) { check(wal.Append(input)) })
	m.set("store.wal_append_ns", ns)
	ns, _ = timeOps(driveBatches, c.scaled(40), func(int) {
		check(wal.Append(input))
		check(wal.Sync())
	})
	m.set("store.wal_sync_us", ns/1e3)
	check(wal.Close())

	// The durable DB as fleet-chain-wal opens it, auto-compaction off so
	// the WAL's size counts every record of every task.
	opts := store.DefaultDurableOptions()
	opts.Fsync = store.FsyncBatch
	opts.CompactEvery = store.NoAutoCompact
	ddir := filepath.Join(dir, "durable")
	ddb, _, err := store.OpenDurable(ddir, opts)
	if err != nil {
		return err
	}
	ns, _ = timeOps(driveBatches, c.scaled(4000), func(i int) {
		_, err := ddb.Force(keys[i%len(keys)], input)
		check(err)
	})
	m.set("store.durable_put_ns", ns)
	check(ddb.CompactNow())

	// One checkpointed task, the calls Gateway.runDurable makes.
	log := store.NewCheckpointLog(ddb)
	tasks := c.scaled(400)
	ns, _ = timeOps(driveBatches, tasks, func(i int) {
		id := taskID(uint64(i))
		_, data, err := log.Begin(id, "chain3", input)
		check(err)
		for step := range chainSteps {
			check(log.Advance(id, step))
			data, err = log.CommitStep(id, step, append(data, chainSuffix[step]))
			check(err)
		}
		check(log.Complete(id))
	})
	m.set("store.ckpt_task_us", ns/1e3)
	m.set("store.wal_bytes_per_task", float64(ddb.WALSize())/float64(driveBatches*tasks))

	// Compaction and recovery at that state: 2 000 completed tasks.
	start := time.Now()
	check(ddb.CompactNow())
	m.set("store.compact_ms", float64(time.Since(start))/1e6)
	check(ddb.Close())
	d := timeRuns(3, func() {
		rdb, _, err := store.Recover(ddir)
		check(err)
		if err == nil {
			check(rdb.Close())
		}
	})
	m.set("store.recover_ms", float64(d)/1e6)
	return failed.err
}

// replicaSet boots n controller replicas (no gateways) on loopback
// and returns them with the time from Start to the first leader.
func replicaSet(n int, seed int64) (*fleet, time.Duration, error) {
	f := &fleet{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		lns[i] = ln
	}
	for i := range lns {
		peers := map[int]func() (net.Conn, error){}
		for j := range lns {
			if j != i {
				addr := lns[j].Addr().String()
				peers[j] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
			}
		}
		rep := controller.NewReplica(controller.DefaultReplicaConfig(i, n, seed), peers, controller.NewMonitor())
		go rep.Server().Serve(lns[i]) // Kill closes the server and its listener
		f.replicas = append(f.replicas, rep)
	}
	start := time.Now()
	for _, rep := range f.replicas {
		rep.Start()
	}
	if !f.waitLeader(10 * time.Second) {
		f.killReplicas()
		return nil, 0, fmt.Errorf("controller drive: no leader among %d replicas", n)
	}
	return f, time.Since(start), nil
}

func driveController(c *config, _ *payloadPool, m metricSet) error {
	var ds []float64
	for i := 0; i < 3; i++ {
		f, d, err := replicaSet(3, c.seed+int64(i))
		if err != nil {
			return err
		}
		f.killReplicas()
		ds = append(ds, float64(d)/1e6)
	}
	m.set("controller.elect_ms", median(ds))

	// The admission gate, on a set of one: its own vote is a quorum, so
	// it leads for as long as the drive runs.
	f, _, err := replicaSet(1, c.seed)
	if err != nil {
		return err
	}
	defer f.killReplicas()
	gate := f.replicas[0].Admission()
	var failed firstErr
	ns, _ := timeOps(driveBatches, c.scaled(1000000), func(int) { failed.set(gate()) })
	m.set("controller.gate_ns", ns)
	return failed.err
}

func driveMetrics(c *config, pool *payloadPool, m metricSet) error {
	// Counter and histogram updates under nproc goroutines at once.
	reg := metrics.NewRegistry()
	contended := func(n int, fn func()) float64 {
		d := timeRuns(driveBatches, func() {
			var wg sync.WaitGroup
			for g := 0; g < c.nproc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						fn()
					}
				}()
			}
			wg.Wait()
		})
		return float64(d) / float64(n)
	}
	m.set("metrics.count_event_ns", contended(c.scaled(200000), func() { reg.CountEvent("bench-event") }))
	m.set("metrics.observe_ns", contended(c.scaled(200000), func() { reg.Observe("bench-latency", 1e-4) }))

	// The price of observability on the null path: median http-null op
	// with the registry attached minus with nil monitors, in paired
	// short runs that alternate which side goes first.
	run := func(withRegistry bool) (float64, error) {
		stack, err := newHTTPStack(c.clients, withRegistry, nil)
		if err != nil {
			return 0, err
		}
		e := &httpEnv{c: c, stack: stack, pool: pool}
		defer stack.close()
		lat := make([]int64, 0, 6000)
		buf := make([]byte, 64)
		for i := 0; i < c.scaled(6000); i++ {
			start := time.Now()
			if err := e.doThen("echo", noTrace|uint64(i), pool.fill(buf, noTrace|uint64(i), 64)); err != nil {
				return 0, err
			}
			if i >= c.scaled(1000) { // the first sixth warms the connection
				lat = append(lat, int64(time.Since(start)))
			}
		}
		slices.Sort(lat)
		return float64(percentile(lat, 50)) / 1e3, nil
	}
	var diffs []float64
	for pair := 0; pair < 4; pair++ {
		order := [2]bool{pair%2 == 0, pair%2 != 0}
		var with, without float64
		for _, reg := range order {
			us, err := run(reg)
			if err != nil {
				return err
			}
			if reg {
				with = us
			} else {
				without = us
			}
		}
		diffs = append(diffs, with-without)
	}
	m.set("metrics.http_null_cost_us", median(diffs))
	return nil
}

func driveSim(c *config, _ *payloadPool, m metricSet) error {
	// Null self-rescheduling events, one chain per sim-swarm cell: the
	// executive's own cost per event, first on one Engine, then with
	// each chain in a cell of its own on nproc workers.
	const cells, period, lookahead = 78, 0.001, 0.005
	horizon := float64(c.scaled(6000)) * period
	chain := func(eng *sim.Engine, i int) {
		var tick func()
		tick = func() { eng.Defer(period, tick) }
		eng.Defer(float64(i)*1e-5, tick)
	}
	var steps uint64
	d := timeRuns(driveBatches, func() {
		e := sim.NewEngine(c.seed)
		for i := 0; i < cells; i++ {
			chain(e, i)
		}
		steps = e.RunUntil(horizon)
	})
	m.set("sim.engine_ns_per_event", float64(d)/float64(steps))

	d = timeRuns(driveBatches, func() {
		se, err := sim.NewSharded(c.seed, cells, lookahead, c.nproc)
		if err != nil {
			panic(err) // the constants above are valid
		}
		for i := 0; i < cells; i++ {
			chain(se.Cell(i).Engine(), i)
		}
		steps = se.Run(horizon)
	})
	m.set("sim.shard_ns_per_event", float64(d)/float64(steps))
	return nil
}

// swarmLayout draws device positions and radio ranges the way
// scenario.RunSwarm does, for the drives of the parts it is built from.
func swarmLayout(cfg scenario.SwarmConfig) (field geo.Rect, pts []geo.Point, ranges []float64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	side := math.Sqrt(float64(cfg.Devices)) * 10 // RunSwarm's default: 0.01 devices/m²
	mix := scenario.DefaultMix()
	pts = make([]geo.Point, cfg.Devices)
	ranges = make([]float64, cfg.Devices)
	for d := range pts {
		pts[d] = geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		u, class := rng.Float64(), len(mix)-1
		for i, cl := range mix {
			if u < cl.Frac {
				class = i
				break
			}
			u -= cl.Frac
		}
		ranges[d] = mix[class].RadioRangeM
	}
	return geo.NewField(side, side), pts, ranges
}

func driveSwarmParts(c *config, _ *payloadPool, m metricSet) error {
	cfg := swarmConfig(missionSeed(c.seed, 0), c.nproc)
	field, pts, ranges := swarmLayout(cfg)
	reps := 5
	if c.scale < 1 {
		reps = 1
	}

	var ix *netsim.NeighborIndex
	d := timeRuns(reps, func() { ix = netsim.BuildNeighborIndex(pts, ranges) })
	m.set("netsim.neighbor_build_ms", float64(d)/1e6)
	var sink int
	ns, _ := timeOps(driveBatches, c.scaled(1000000), func(i int) { sink += len(ix.Neighbors(i % len(pts))) })
	if sink == 0 {
		return fmt.Errorf("netsim drive: empty neighbour index")
	}
	m.set("netsim.neighbor_query_ns", ns)

	rects := geo.Partition(field, 78)
	d = timeRuns(reps, func() { geo.BuildCellIndex(rects, pts) })
	m.set("geo.cellindex_build_ms", float64(d)/1e6)

	// A mission that simulates almost nothing is the mission's set-up;
	// what a full mission adds is the cost of simulated time.
	var failed error
	mission := func(durationS float64, shards int) time.Duration {
		cfg := cfg
		cfg.DurationS, cfg.Shards = durationS, shards
		return timeRuns(reps, func() {
			if _, err := scenario.RunSwarm(cfg); err != nil {
				failed = err
			}
		})
	}
	setup := mission(0.01, c.nproc)
	full := mission(cfg.DurationS, c.nproc)
	serial := mission(cfg.DurationS, 1)
	m.set("scenario.swarm_setup_ms", float64(setup)/1e6)
	m.set("scenario.swarm_ms_per_sim_s", float64(full-setup)/1e6/cfg.DurationS)
	m.set("sim.shard_speedup", float64(serial)/float64(full))
	return failed
}

func driveExperiments(c *config, _ *payloadPool, m metricSet) error {
	p, ok := apps.ByID(apps.S1FaceRecognition)
	if !ok {
		return fmt.Errorf("platform drive: no S1 profile")
	}
	jobS := 30.0 * c.scale // the quick sweep's job length
	d := timeRuns(3, func() {
		platform.NewSystem(platform.Preset(platform.HiveMind, 16, c.seed)).RunJob(p, jobS)
	})
	m.set("platform.runjob_ms", float64(d)/1e6)

	if c.scale == 1 { // a sweep cannot be scaled down; -smoke skips it
		seed := missionSeed(c.seed, 0)
		start := time.Now()
		serial := experiments.RunAll(sweepConfig(seed, 1))
		serialS := time.Since(start).Seconds()
		start = time.Now()
		experiments.RunAll(sweepConfig(seed, c.nproc))
		parS := time.Since(start).Seconds()
		m.set("experiments.sweep_s", parS)
		m.set("experiments.par_speedup", serialS/parS)
		// Per-figure costs from the serial sweep, where nothing contends.
		for _, r := range serial {
			if name := "experiments." + r.Experiment.ID + "_ms"; m.has(name) {
				m.set(name, float64(r.Elapsed)/1e6)
			}
		}
	}

	small, err := dsl.NewGraph("scenarioB").
		Task("createRoute").
		Task("collectImage", dsl.WithParents("createRoute")).
		Task("obstacleAvoidance", dsl.WithParents("collectImage")).
		Task("faceRecognition", dsl.WithParents("collectImage")).
		Task("deduplication", dsl.WithParents("faceRecognition")).
		Place("obstacleAvoidance", dsl.PlaceEdge, true).
		Build()
	if err != nil {
		return err
	}
	smallCosts := map[string]synth.TaskCost{
		"createRoute":       {CloudExecS: 0.05, EdgeExecS: 0.2, Parallelism: 1, OutputMB: 0.01, RatePerDev: 0.02},
		"collectImage":      {CloudExecS: 0.01, EdgeExecS: 0.01, Parallelism: 1, OutputMB: 8, RatePerDev: 1, Sensor: true},
		"obstacleAvoidance": {CloudExecS: 0.06, EdgeExecS: 0.1, Parallelism: 1, InputMB: 0.4, OutputMB: 0.005, RatePerDev: 4},
		"faceRecognition":   {CloudExecS: 0.8, EdgeExecS: 3.5, Parallelism: 8, InputMB: 8, OutputMB: 0.05, RatePerDev: 1},
		"deduplication":     {CloudExecS: 1.0, EdgeExecS: 4.5, Parallelism: 8, InputMB: 0.05, OutputMB: 0.1, RatePerDev: 0.5},
	}
	// 12 tasks, no pins: 4096 candidates, the explorer's stress shape.
	wb := dsl.NewGraph("wide").Task("src")
	wideCosts := map[string]synth.TaskCost{
		"src": {CloudExecS: 0.01, EdgeExecS: 0.02, Parallelism: 1, OutputMB: 0.5, RatePerDev: 1},
	}
	stages := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for _, s := range stages {
		wb = wb.Task(s, dsl.WithParents("src"))
		wideCosts[s] = synth.TaskCost{CloudExecS: 0.05, EdgeExecS: 0.12, Parallelism: 2, InputMB: 0.5, OutputMB: 0.1, RatePerDev: 0.5}
	}
	wideCosts["sink"] = synth.TaskCost{CloudExecS: 0.08, EdgeExecS: 0.3, Parallelism: 2, InputMB: 1, OutputMB: 0.05, RatePerDev: 0.5}
	wide, err := wb.Task("sink", dsl.WithParents(stages...)).Build()
	if err != nil {
		return err
	}
	env := synth.DefaultEnv(16)
	var failed error
	ns, _ := timeOps(driveBatches, c.scaled(2000), func(int) {
		if _, err := synth.Explore(small, smallCosts, env); err != nil {
			failed = err
		}
	})
	m.set("synth.explore_us", ns/1e3)
	ns, _ = timeOps(driveBatches, c.scaled(10), func(int) {
		if _, err := synth.Explore(wide, wideCosts, env); err != nil {
			failed = err
		}
	})
	m.set("synth.explore_wide_ms", ns/1e6)
	return failed
}
