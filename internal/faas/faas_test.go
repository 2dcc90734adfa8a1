package faas

import (
	"fmt"
	"math"
	"testing"

	"hivemind/internal/accel"
	"hivemind/internal/cluster"
	"hivemind/internal/scheduler"
	"hivemind/internal/sim"
	"hivemind/internal/stats"
	"hivemind/internal/store"
)

func testCluster(eng *sim.Engine) *cluster.Cluster {
	return cluster.New(eng, cluster.Config{Servers: 4, CoresPerServer: 8, MemGBPerServer: 64})
}

// quietConfig removes stochastic effects for deterministic assertions.
func quietConfig() Config {
	c := DefaultConfig()
	c.InterferenceCoef = 0
	c.StragglerProb = 0
	c.FailureProb = 0
	c.MonitoringOverhead = 0
	return c
}

func spec(name string, exec float64) FunctionSpec {
	return FunctionSpec{Name: name, ExecS: exec, Parallelism: 1, MemGB: 1}
}

func TestInvokeBasicLatencyComposition(t *testing.T) {
	e := sim.NewEngine(1)
	p := New(e, testCluster(e), quietConfig())
	var res Result
	var total float64
	p.Invoke(spec("face", 0.5), timed(e, func(r Result, s float64) { res, total = r, s }))
	e.Run()
	wantMgmt := authS + schedS + coldStartS
	if math.Abs(res.MgmtS-wantMgmt) > 1e-9 {
		t.Fatalf("mgmt = %g, want %g", res.MgmtS, wantMgmt)
	}
	if math.Abs(res.ExecS-0.5) > 1e-9 {
		t.Fatalf("exec = %g", res.ExecS)
	}
	if coldStarts(p) != 1 || res.Respawns != 0 {
		t.Fatalf("cold=%d respawns=%d", coldStarts(p), res.Respawns)
	}
	if math.Abs(total-(wantMgmt+0.5)) > 1e-9 {
		t.Fatalf("total = %g", total)
	}
	if p.invocations != 1 {
		t.Fatalf("invocations = %d", p.invocations)
	}
}

func TestKeepAliveWarmReuse(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := quietConfig()
	cfg.KeepAliveS = 20
	p := New(e, testCluster(e), cfg)
	var second Result
	p.Invoke(spec("face", 0.1), func(Result) {
		// Invoke again 5s later: inside the keep-alive window.
		e.At(e.Now()+5, func() {
			p.Invoke(spec("face", 0.1), func(r2 Result) { second = r2 })
		})
	})
	e.Run()
	if coldStarts(p) != 1 {
		t.Fatalf("cold starts = %d: the second invocation cold-started despite keep-alive", coldStarts(p))
	}
	wantWarmMgmt := authS + schedS + cfg.WarmStartS
	if math.Abs(second.MgmtS-wantWarmMgmt) > 1e-9 {
		t.Fatalf("warm mgmt = %g, want %g", second.MgmtS, wantWarmMgmt)
	}
	hits, _, _ := p.warm.stats()
	if hits != 1 {
		t.Fatalf("warm hits = %d", hits)
	}
}

func TestKeepAliveExpiry(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := quietConfig()
	cfg.KeepAliveS = 10
	p := New(e, testCluster(e), cfg)
	p.Invoke(spec("face", 0.1), func(Result) {
		e.At(e.Now()+30, func() { // past the keep-alive window
			p.Invoke(spec("face", 0.1), func(Result) {})
		})
	})
	e.Run()
	if coldStarts(p) != 2 {
		t.Fatal("expired container was reused")
	}
	// Both containers (the expired one and the second cold-started one)
	// eventually expire once the run drains.
	_, _, expired := p.warm.stats()
	if expired != 2 {
		t.Fatalf("expired = %d", expired)
	}
}

func TestZeroKeepAliveAlwaysCold(t *testing.T) {
	e := sim.NewEngine(1)
	p := New(e, testCluster(e), quietConfig()) // stock OpenWhisk
	for i := 0; i < 3; i++ {
		at := float64(i)
		e.At(at, func() {
			p.Invoke(spec("face", 0.1), func(Result) {})
		})
	}
	e.Run()
	if colds := coldStarts(p); colds != 3 {
		t.Fatalf("colds = %d, want 3", colds)
	}
}

func TestIntraTaskParallelismSpeedsExecution(t *testing.T) {
	e := sim.NewEngine(1)
	p := New(e, testCluster(e), quietConfig())
	var serial, parallel Result
	var serialS, parallelS float64
	p.Invoke(spec("slam", 2.0), timed(e, func(r Result, s float64) { serial, serialS = r, s }))
	e.Run()
	serialColds := coldStarts(p)
	sp := spec("slam2", 2.0)
	sp.Parallelism = 8
	p.Invoke(sp, timed(e, func(r Result, s float64) { parallel, parallelS = r, s }))
	e.Run()
	if parallel.ExecS >= serial.ExecS/4 {
		t.Fatalf("parallel exec %g not ≪ serial %g", parallel.ExecS, serial.ExecS)
	}
	if parallelS >= serialS {
		t.Fatal("intra-task parallelism did not reduce latency")
	}
	if colds := coldStarts(p) - serialColds; colds != 8 {
		t.Fatalf("parallel branches cold = %d, want 8", colds)
	}
}

func TestDataSharingProtocolOrdering(t *testing.T) {
	latencyWith := func(proto store.Protocol) float64 {
		e := sim.NewEngine(1)
		cfg := quietConfig()
		cfg.Protocol = proto
		p := New(e, testCluster(e), cfg)
		sp := spec("child", 0.1)
		sp.ParentDataMB = 2
		var res Result
		p.Invoke(sp, func(r Result) { res = r })
		e.Run()
		return res.DataIOS
	}
	couch := latencyWith(store.ProtoCouchDB)
	rpc := latencyWith(store.ProtoDirectRPC)
	if couch <= rpc {
		t.Fatalf("couch %g <= rpc %g", couch, rpc)
	}
	if rpc <= 0 {
		t.Fatal("rpc data IO should be positive")
	}
}

func TestRemoteMemFabricDataSharing(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := HiveMindConfig(accel.NewFabric())
	cfg.InterferenceCoef, cfg.StragglerProb, cfg.FailureProb, cfg.MonitoringOverhead = 0, 0, 0, 0
	p := New(e, testCluster(e), cfg)
	sp := spec("child", 0.1)
	sp.ParentDataMB = 2
	var res Result
	p.Invoke(sp, func(r Result) { res = r })
	e.Run()
	// Fabric access for 2MB ≈ 25µs + 2/9600s ≈ 233µs ≪ CouchDB ~50ms.
	if res.DataIOS > 0.002 {
		t.Fatalf("remote-mem data IO = %g s, want sub-millisecond", res.DataIOS)
	}
}

func TestRemoteMemFallsBackWithoutEngine(t *testing.T) {
	e := sim.NewEngine(1)
	fab := accel.NewFabric()
	// Reprogram with only the RPC engine: remote memory region absent.
	if err := fab.Program(accel.HardConfig{}, map[accel.Region]float64{accel.RegionRPC: 0.24}); err != nil {
		t.Fatal(err)
	}
	cfg := HiveMindConfig(fab)
	cfg.InterferenceCoef, cfg.StragglerProb, cfg.FailureProb, cfg.MonitoringOverhead = 0, 0, 0, 0
	p := New(e, testCluster(e), cfg)
	sp := spec("child", 0.1)
	sp.ParentDataMB = 2
	var res Result
	p.Invoke(sp, func(r Result) { res = r })
	e.Run()
	couch := store.ExchangeS(store.ProtoCouchDB, 2)
	if math.Abs(res.DataIOS-couch) > 1e-9 {
		t.Fatalf("fallback data IO = %g, want CouchDB %g", res.DataIOS, couch)
	}
}

func TestConcurrencyLimitQueues(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := quietConfig()
	cfg.MaxInFlight = 2
	p := New(e, testCluster(e), cfg)
	finished := 0
	var lastQueue float64
	for i := 0; i < 4; i++ {
		p.Invoke(spec("f", 1.0), func(r Result) {
			finished++
			lastQueue = r.QueueS
		})
	}
	e.Run()
	if finished != 4 {
		t.Fatalf("finished = %d", finished)
	}
	if lastQueue <= 0 {
		t.Fatal("over-limit tasks should report queueing time")
	}
}

func TestFailureRespawnCompletesTask(t *testing.T) {
	e := sim.NewEngine(7)
	cfg := quietConfig()
	cfg.FailureProb = 1.0 // always fail (capped at 3 attempts)
	p := New(e, testCluster(e), cfg)
	var res Result
	p.Invoke(spec("flaky", 0.5), func(r Result) { res = r })
	e.Run()
	if res.Respawns != 3 {
		t.Fatalf("respawns = %d, want 3 (attempt cap)", res.Respawns)
	}
	// The fourth attempt fails fast: no fourth respawn, four failures.
	if p.failures != 4 {
		t.Fatalf("failures = %d", p.failures)
	}
}

func TestFailureRespawnKeepsThroughput(t *testing.T) {
	// Fig. 5c: even at 20% failed tasks the platform hides the failures
	// by respawning; all tasks complete.
	e := sim.NewEngine(11)
	cfg := quietConfig()
	cfg.FailureProb = 0.20
	p := New(e, testCluster(e), cfg)
	done := 0
	const n = 300
	for i := 0; i < n; i++ {
		at := float64(i) * 0.01
		e.At(at, func() { p.Invoke(spec("f", 0.2), func(Result) { done++ }) })
	}
	e.Run()
	if done != n {
		t.Fatalf("completed %d/%d with failure injection", done, n)
	}
	if p.failures == 0 {
		t.Fatal("no failures injected at 20%")
	}
}

func TestStragglerMitigationCutsTail(t *testing.T) {
	run := func(mitigate bool) float64 {
		e := sim.NewEngine(3)
		cfg := quietConfig()
		cfg.StragglerProb = 0.05
		cfg.StragglerFactor = 10
		cfg.Mitigate = mitigate
		cfg.MitigationMinObs = 10
		p := New(e, testCluster(e), cfg)
		var lat stats.Sample
		for i := 0; i < 400; i++ {
			at := float64(i) * 0.05
			e.At(at, func() {
				p.Invoke(spec("job", 0.3), timed(e, func(_ Result, s float64) { lat.Add(s) }))
			})
		}
		e.Run()
		return lat.Percentile(99)
	}
	base, mitigated := run(false), run(true)
	if mitigated >= base {
		t.Fatalf("mitigation did not cut p99: %g vs %g", mitigated, base)
	}
}

func TestInterferenceInflatesBusyServers(t *testing.T) {
	e := sim.NewEngine(5)
	cfg := quietConfig()
	cfg.InterferenceCoef = 1.0
	p := New(e, testCluster(e), cfg)
	// Saturate the cluster, then measure one task.
	for i := 0; i < 32; i++ {
		p.Invoke(spec("bg", 50), func(Result) {})
	}
	var res Result
	done := false
	e.At(1, func() { p.Invoke(spec("probe", 1.0), func(r Result) { res, done = r, true }) })
	e.RunUntil(60)
	if !done {
		t.Skip("probe did not finish within window")
	}
	if res.ExecS <= 1.0 {
		t.Fatalf("exec %g under full interference, want >1.0", res.ExecS)
	}
}

func TestActiveGaugeTracksLoad(t *testing.T) {
	e := sim.NewEngine(1)
	p := New(e, testCluster(e), quietConfig())
	for i := 0; i < 10; i++ {
		p.Invoke(spec("f", 1.0), func(Result) {})
	}
	e.Run()
	peak := p.ActiveGauge().Max()
	if peak < 10 {
		t.Fatalf("gauge max = %g, want >= 10", peak)
	}
	// The gauge drains to 0: a second, equal batch reaches the same peak.
	for i := 0; i < 10; i++ {
		p.Invoke(spec("f", 1.0), func(Result) {})
	}
	e.Run()
	if got := p.ActiveGauge().Max(); got != peak {
		t.Fatalf("gauge max after a second batch = %g, want %g", got, peak)
	}
}

func TestReservedPoolBaseline(t *testing.T) {
	e := sim.NewEngine(1)
	r := NewReserved(e, 2)
	var last Result
	finished := 0
	for i := 0; i < 6; i++ {
		r.Invoke(spec("f", 1.0), func(res Result) { finished++; last = res })
	}
	e.Run()
	if finished != 6 {
		t.Fatalf("finished = %d", finished)
	}
	// 6 × 1s on 2 cores → last completes at 3s, with queueing recorded.
	if math.Abs(e.Now()-3.0) > 1e-9 {
		t.Fatalf("makespan = %g", e.Now())
	}
	if last.QueueS <= 0 {
		t.Fatal("reserved tasks should queue when pool is full")
	}
	if last.MgmtS != 0 {
		t.Fatal("reserved pool must not pay instantiation")
	}
}

func TestReservedParallelismBoundedByPool(t *testing.T) {
	e := sim.NewEngine(1)
	r := NewReserved(e, 4)
	sp := spec("f", 4.0)
	sp.Parallelism = 16 // only 4 cores exist
	var res Result
	r.Invoke(sp, func(rr Result) { res = rr })
	e.Run()
	// Split over 4 branches of 1s each → exec 1s, not 0.25s.
	if math.Abs(res.ExecS-1.0) > 1e-9 {
		t.Fatalf("exec = %g, want 1.0", res.ExecS)
	}
}

func TestServerlessVsReservedShape(t *testing.T) {
	// Fig. 5a: with equal CPU budget and bursty arrivals serverless
	// completes tasks much faster than a fixed allocation sized for the
	// average demand.
	const (
		devices = 16
		taskS   = 0.8
		par     = 8
		period  = 1.0
		rounds  = 30
	)
	serverless := func() float64 {
		e := sim.NewEngine(2)
		cls := cluster.New(e, cluster.DefaultConfig())
		p := New(e, cls, quietConfig())
		var lat stats.Sample
		for round := 0; round < rounds; round++ {
			at := float64(round) * period
			for d := 0; d < devices; d++ {
				e.At(at, func() {
					sp := spec("face", taskS)
					sp.Parallelism = par
					p.Invoke(sp, timed(e, func(_ Result, s float64) { lat.Add(s) }))
				})
			}
		}
		e.Run()
		return lat.Median()
	}()
	reserved := func() float64 {
		e := sim.NewEngine(2)
		// Equal average CPU: 16 tasks/s × 0.8 core-s ≈ 13 cores.
		r := NewReserved(e, 13)
		var lat stats.Sample
		for round := 0; round < rounds; round++ {
			at := float64(round) * period
			for d := 0; d < devices; d++ {
				e.At(at, func() {
					r.Invoke(spec("face", taskS), timed(e, func(_ Result, s float64) { lat.Add(s) }))
				})
			}
		}
		e.Run()
		return lat.Median()
	}()
	if serverless >= reserved/2 {
		t.Fatalf("serverless median %g not ≪ reserved %g", serverless, reserved)
	}
}

func TestPlatformString(t *testing.T) {
	e := sim.NewEngine(1)
	p := New(e, testCluster(e), quietConfig())
	if p.String() == "" {
		t.Fatal("empty string")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		e := sim.NewEngine(13)
		cfg := DefaultConfig() // stochastic path on purpose
		cfg.FailureProb = 0.1
		p := New(e, testCluster(e), cfg)
		var lats []float64
		for i := 0; i < 100; i++ {
			at := float64(i) * 0.05
			e.At(at, func() {
				p.Invoke(spec("f", 0.3), timed(e, func(_ Result, s float64) { lats = append(lats, s) }))
			})
		}
		e.Run()
		return lats
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestShardedSchedulerQueuesDecisions(t *testing.T) {
	// A one-shard controller at a decision rate beyond its capacity
	// inflates management latency; the fixed-SchedS path does not.
	run := func(withSched bool) float64 {
		e := sim.NewEngine(1)
		cfg := quietConfig()
		if withSched {
			cfg.Scheduler = scheduler.NewSharded(e, 1, 0.01) // 100 decisions/s
		}
		p := New(e, testCluster(e), cfg)
		var worst float64
		for i := 0; i < 200; i++ {
			at := float64(i) * 0.002 // 500 submissions/s: 5x over capacity
			e.At(at, func() {
				p.Invoke(spec("f", 0.05), func(r Result) {
					if r.MgmtS > worst {
						worst = r.MgmtS
					}
				})
			})
		}
		e.Run()
		return worst
	}
	fixed, sharded := run(false), run(true)
	if sharded < 5*fixed {
		t.Fatalf("overloaded scheduler mgmt %.3f not ≫ fixed-cost %.3f", sharded, fixed)
	}
}

func TestAdmissionIsFIFO(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := quietConfig()
	cfg.MaxInFlight = 1
	p := New(e, testCluster(e), cfg)
	var order []string
	for _, name := range []string{"first", "a", "b", "c"} { // first occupies the only slot
		p.Invoke(spec(name, 0.5), func(Result) { order = append(order, name) })
	}
	e.Run()
	if fmt.Sprint(order) != "[first a b c]" {
		t.Fatalf("admission order = %v, want arrival order", order)
	}
}

// coldStarts counts the platform's cold starts so far: every branch
// that finds no warm container starts one.
func coldStarts(p *Platform) int {
	_, misses, _ := p.warm.stats()
	return misses
}

// timed wraps done for one Invoke call, passing the task's end-to-end
// latency: the engine time from the call to its completion.
func timed(e *sim.Engine, done func(r Result, totalS float64)) func(Result) {
	start := e.Now()
	return func(r Result) { done(r, e.Now()-start) }
}

// TestWarmInvokeAllocs pins a warm invocation (pool hit, no straggler,
// no failure, a scheduler decision) at one allocation: the caller's
// done closure. Every stage is a record on slab state.
func TestWarmInvokeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := sim.NewEngine(1)
	cfg := quietConfig()
	cfg.KeepAliveS = 20
	cfg.Scheduler = scheduler.NewSharded(e, 1, 0.0002)
	p := New(e, testCluster(e), cfg)
	done := 0
	invoke := func() {
		p.Invoke(spec("f", 0.1), func(Result) { done++ })
		e.RunUntil(e.Now() + 1)
	}
	invoke() // the cold start
	allocs := testing.AllocsPerRun(200, invoke)
	if hits, misses, _ := p.warm.stats(); misses != 1 || hits != 201 || done != 202 {
		t.Fatalf("hits %d misses %d done %d: want every invocation after the first warm", hits, misses, done)
	}
	if allocs > 1 {
		t.Fatalf("a warm invocation allocates %.2f, want at most the caller's done", allocs)
	}
}
