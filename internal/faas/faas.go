// Package faas simulates the serverless backend: an OpenWhisk-style
// platform (§2.3: NGINX front-end → controller with CouchDB auth →
// invoker → Docker container) with the behaviours the paper measures —
// cold/warm instantiation, keep-alive reuse (§4.3), bounded user
// concurrency, intra-task parallelism (§3.2), inter-function data
// sharing through CouchDB / direct RPC / in-memory / FPGA remote memory
// (§3.3, §4.4), interference-driven variability (§3.3), failure respawn
// (§3.2) and straggler mitigation (§4.6). It also provides the reserved
// (IaaS) deployment baseline.
package faas

import (
	"fmt"
	"math"

	"hivemind/internal/accel"
	"hivemind/internal/cluster"
	"hivemind/internal/scheduler"
	"hivemind/internal/sim"
	"hivemind/internal/stats"
	"hivemind/internal/store"
)

// Config tunes the platform. Times are seconds.
type Config struct {
	WarmStartS  float64 // reuse of a kept-alive container
	KeepAliveS  float64 // idle container lifetime (0: terminate at once)
	MaxInFlight int     // user concurrent-function limit (AWS default 1000)

	// Protocol is the inter-function data-sharing mechanism, priced
	// by store.ExchangeS.
	Protocol store.Protocol
	// Fabric, if non-nil and Protocol is ProtoRemoteMem, prices fabric
	// accesses from the calibrated accelerator model instead.
	Fabric *accel.Fabric

	// InterferenceCoef scales execution slowdown with server core
	// utilization (function interference, §3.3). 0 disables.
	InterferenceCoef float64
	// StragglerProb/StragglerFactor inject occasional slow functions.
	StragglerProb   float64
	StragglerFactor float64
	// FailureProb fails a function mid-run; the platform respawns it
	// after respawnDelayS (§3.2, Fig. 5c).
	FailureProb float64
	// Mitigate enables HiveMind's straggler mitigation: functions
	// running past the job's p90 are respawned on another server and the
	// first finisher wins; repeat offenders go on probation for
	// probationS.
	Mitigate           bool
	MitigationMinObs   int     // history needed before the p90 rule arms
	SchedulerExtraS    float64 // HiveMind's richer scheduler costs slightly more (§5.1)
	MonitoringOverhead float64 // fractional slowdown from the worker monitors (§4.7, ~0.001)

	// Scheduler, if non-nil, serialises invoker-selection decisions
	// through the sharded decision engine; its queueing replaces the
	// fixed SchedS term, so a single-shard controller becomes a real
	// bottleneck at scale and extra shards relieve it (§5.6).
	Scheduler *scheduler.Sharded
}

// The OpenWhisk calibration's fixed costs, in seconds.
const (
	authS      float64 = 0.006 // front-end + CouchDB auth lookup
	schedS     float64 = 0.004 // controller invoker-selection + Kafka publish
	coldStartS float64 = 0.160 // container pull + start: "millisecond-level overheads" vs seconds for IaaS
	// respawnDelayS is the wait before a failed function is respawned
	// (§3.2).
	respawnDelayS float64 = 0.120
	// probationS is how long a server that ran a straggler is avoided.
	probationS float64 = 120
	// aggregationBaseS is the fan-in sync cost for intra-task
	// parallelism.
	aggregationBaseS float64 = 0.006
)

// mitigationPctl is the percentile of a function's execution history
// that straggler mitigation measures against (§4.6: the job's p90).
const mitigationPctl = 90

// DefaultConfig returns the OpenWhisk-like baseline calibration.
func DefaultConfig() Config {
	return Config{
		WarmStartS:       0.009,
		KeepAliveS:       0, // stock OpenWhisk terminates shortly after completion
		MaxInFlight:      1000,
		Protocol:         store.ProtoCouchDB,
		InterferenceCoef: 0.9,
		StragglerProb:    0.02,
		StragglerFactor:  4.0,
		MitigationMinObs: 20,
	}
}

// HiveMindConfig returns the platform tuned as §4.3–4.4 describe:
// keep-alive reuse, remote-memory data sharing, straggler mitigation.
// The paper's parent/child colocation (§4.3) is not modelled.
func HiveMindConfig(fabric *accel.Fabric) Config {
	c := DefaultConfig()
	c.KeepAliveS = 20 // empirically set between 10 and 30 s
	c.Protocol = store.ProtoRemoteMem
	c.Fabric = fabric
	c.Mitigate = true
	c.SchedulerExtraS = 0.0015 // slightly higher than stock controller (§5.1)
	c.MonitoringOverhead = 0.001
	return c
}

// FunctionSpec describes one task submitted to the platform.
type FunctionSpec struct {
	Name        string
	ExecS       float64 // total single-core service time of the task
	Parallelism int     // split across this many functions (>=1)
	MemGB       float64
	ExecCV      float64
	// ParentDataMB is intermediate data pulled from the parent function
	// (0 for root tasks).
	ParentDataMB float64
}

// Result reports one task's latency decomposition.
type Result struct {
	MgmtS    float64 // auth + scheduling + instantiation
	DataIOS  float64 // inter-function data sharing
	ExecS    float64 // computation (max over parallel branches)
	QueueS   float64 // waiting for cores / concurrency slots
	Respawns int     // failure respawns
}

// Platform is the simulated serverless cloud.
type Platform struct {
	calls
	cls *cluster.Cluster
	cfg Config

	warm     *warmPool
	inFlight int
	waiting  []int32     // invocations waiting for a concurrency slot
	pending  map[int]int // server id -> placed-but-not-yet-running branches

	active  stats.Gauge // running functions and their peak (Fig. 5c)
	history map[string]*stats.Sample

	branches sim.Slab[branch]
	// Record kinds: a = invocation or branch, b = its stage.
	invKind, branchKind uint8

	invocations int
	failures    int
	placeCursor int
}

// invocation is one task from Invoke to its result.
type invocation struct {
	spec      FunctionSpec
	res       Result
	worst     Result // the slowest branch's stages so far
	remaining int    // branches still running
	key       uint64 // the scheduler's task key
	// at is when the task asked the scheduler, then when it asked for
	// a concurrency slot (Reserved: for cores).
	at sim.Time
	// The caller: Invoke's done, or Call's record (kind, a, invocation).
	done func(Result)
	kind uint8
	a    int32
}

// calls holds a platform's invocations. Invoke and Call make one and
// hand it to start; Result reads one.
type calls struct {
	eng   *sim.Engine
	invs  sim.Slab[invocation]
	start func(i int32, inv *invocation)
}

// Invoke submits a task. done receives the Result when the task (all
// parallel branches) completes.
func (c *calls) Invoke(spec FunctionSpec, done func(Result)) { c.invoke(spec).done = done }

// Call is Invoke for record callers: when the task completes it runs
// record (kind, a, b) inline, and Result(b) reads the task's result
// inside that handler.
func (c *calls) Call(spec FunctionSpec, kind uint8, a int32) {
	inv := c.invoke(spec)
	inv.kind, inv.a = kind, a
}

// Result returns invocation i's result while its record runs.
func (c *calls) Result(i int32) Result { return c.invs.At(i).res }

func (c *calls) invoke(spec FunctionSpec) *invocation {
	if spec.Parallelism < 1 {
		spec.Parallelism = 1
	}
	i, inv := c.invs.New()
	inv.spec = spec
	c.start(i, inv)
	return inv
}

// deliver hands invocation i's result to its caller and frees it.
func (c *calls) deliver(i int32) {
	inv := c.invs.At(i)
	if inv.done != nil {
		inv.done(inv.res)
	} else {
		c.eng.Fire(inv.kind, inv.a, i)
	}
	c.invs.Free(i)
}

// Invocation stages (b of record invKind).
const (
	decided    int32 = iota // the scheduler shard decided
	authed                  // front-end auth done: queue a decision
	scheduled               // auth and the fixed scheduling cost done
	aggregated              // fan-in done
)

// branch is one parallel function of an invocation, from container
// acquisition to its first finisher. A straggler's duplicate runs on
// it too, and its records may outlive the branch's result.
type branch struct {
	inv, c                     int32 // its invocation and container
	srv, dup                   *cluster.Server
	instS, dataS, execBase, cv float64
	attempt                    int      // respawns so far
	enq                        sim.Time // when the pending core request was made
	queueS, execS              float64  // this attempt's wait and run (to failure, if it fails)
	failedQ, failedAt          [3]float64
	threshold, dupQ, dupExec   float64
	finished                   bool
	refs                       int // records pending on it
}

// Branch stages (b of record branchKind).
const (
	pulled     int32 = iota // container up, parent data pulled
	granted                 // a core is granted
	failed                  // the function died partway
	respawned               // the respawn delay is over
	executed                // the function finished
	overdue                 // it outlived the straggler threshold
	dupReady                // the duplicate's cold start is done
	dupGranted              // the duplicate's core is granted
	dupDone                 // the duplicate finished
)

// New builds a platform over a cluster.
func New(eng *sim.Engine, cls *cluster.Cluster, cfg Config) *Platform {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1000
	}
	p := &Platform{
		calls:   calls{eng: eng},
		cls:     cls,
		cfg:     cfg,
		warm:    newWarmPool(eng, cfg.KeepAliveS),
		history: make(map[string]*stats.Sample),
		pending: make(map[int]int),
	}
	p.start = p.schedule
	p.invKind = eng.Handle(p.invStage)
	p.branchKind = eng.Handle(p.branchStage)
	return p
}

// ActiveGauge returns the running-function gauge.
func (p *Platform) ActiveGauge() *stats.Gauge { return &p.active }

// sampleExec draws a service time for one branch.
func (p *Platform) sampleExec(base, cv float64, srv *cluster.Server) (t float64, straggler bool) {
	rng := p.eng.Rand()
	t = base
	if cv > 0 {
		sigma := math.Sqrt(math.Log(1 + cv*cv))
		mu := -sigma * sigma / 2
		t *= math.Exp(mu + sigma*rng.NormFloat64())
	}
	if p.cfg.InterferenceCoef > 0 {
		u := srv.Utilization()
		t *= 1 + p.cfg.InterferenceCoef*u*u
	}
	if p.cfg.MonitoringOverhead > 0 {
		t *= 1 + p.cfg.MonitoringOverhead
	}
	if p.cfg.StragglerProb > 0 && rng.Float64() < p.cfg.StragglerProb {
		t *= p.cfg.StragglerFactor
		straggler = true
	}
	if t < 1e-6 {
		t = 1e-6
	}
	return t, straggler
}

// dataShareS prices fetching the parent's output for one branch.
func (p *Platform) dataShareS(spec *FunctionSpec) float64 {
	if spec.ParentDataMB <= 0 {
		return 0
	}
	if p.cfg.Protocol == store.ProtoRemoteMem && p.cfg.Fabric != nil {
		if s := p.cfg.Fabric.RemoteMemAccessS(spec.ParentDataMB); s > 0 {
			return s
		}
		// Engine absent from the bitstream: fall back to CouchDB.
		return store.ExchangeS(store.ProtoCouchDB, spec.ParentDataMB)
	}
	return store.ExchangeS(p.cfg.Protocol, spec.ParentDataMB)
}

// schedule starts a task with auth and scheduling.
func (p *Platform) schedule(i int32, inv *invocation) {
	p.invocations++
	inv.key = uint64(p.invocations)
	if p.cfg.Scheduler == nil {
		p.eng.PostIn(authS+schedS+p.cfg.SchedulerExtraS, p.invKind, i, scheduled)
	} else {
		// Auth first, then queue on the controller shard responsible for
		// this task.
		p.eng.PostIn(authS+p.cfg.SchedulerExtraS, p.invKind, i, authed)
	}
}

func (p *Platform) invStage(i, stage int32) {
	inv := p.invs.At(i)
	switch stage {
	case authed:
		inv.at = p.eng.Now()
		p.cfg.Scheduler.Decide(inv.key, p.invKind, i)
	case decided:
		p.admit(i, inv, p.eng.Now()-inv.at-schedS)
	case scheduled:
		p.admit(i, inv, 0)
	case aggregated:
		p.complete(i, inv)
	}
}

// admit runs the task when a concurrency slot is free, in arrival order.
func (p *Platform) admit(i int32, inv *invocation, extraMgmt float64) {
	if extraMgmt > 0 {
		inv.res.MgmtS += extraMgmt
	}
	inv.at = p.eng.Now()
	if p.inFlight < p.cfg.MaxInFlight {
		p.inFlight++
		p.run(i, inv)
		return
	}
	p.waiting = append(p.waiting, i)
}

func (p *Platform) release() {
	p.inFlight--
	if len(p.waiting) > 0 && p.inFlight < p.cfg.MaxInFlight {
		next := p.waiting[0]
		p.waiting = p.waiting[1:]
		p.inFlight++
		p.run(next, p.invs.At(next))
	}
}

// run fans an admitted task out over its parallel branches: container
// acquisition (warm pool > cold start) and data pull for each.
func (p *Platform) run(i int32, inv *invocation) {
	inv.res.QueueS += p.eng.Now() - inv.at
	spec := &inv.spec
	k := spec.Parallelism
	inv.remaining = k
	for range k {
		b, br := p.branches.New()
		br.inv, br.execBase, br.cv, br.refs = i, spec.ExecS/float64(k), spec.ExecCV, 1
		br.instS = p.cfg.WarmStartS
		br.c = p.warm.take(spec.Name)
		if br.c < 0 {
			srv := p.placeServer(spec.MemGB)
			memGB := spec.MemGB
			if !srv.ReserveMemGB(memGB) {
				memGB = 0 // cluster-wide memory pressure: over-commit, untracked
			}
			var c *container
			br.c, c = p.warm.all.New()
			c.fn, c.server, c.memGB = spec.Name, srv, memGB
			br.instS = coldStartS
		}
		br.srv = p.warm.all.At(br.c).server
		br.dataS = p.dataShareS(spec)
		p.pending[br.srv.ID]++
		p.eng.PostIn(br.instS+br.dataS, p.branchKind, b, pulled)
	}
}

// placeCandidateCap bounds how many servers one scheduling decision
// examines. Beyond it the scheduler samples a rotating window — the
// power-of-d-choices strategy real cluster schedulers use instead of
// scanning thousands of nodes per decision.
const placeCandidateCap = 64

// placeServer picks the server with the most free cores net of
// placements still instantiating, preferring ones with enough free
// memory and skipping probated servers when possible.
func (p *Platform) placeServer(memGB float64) *cluster.Server {
	servers := p.cls.Servers()
	candidates := servers
	if len(servers) > placeCandidateCap {
		start := p.placeCursor % len(servers)
		p.placeCursor += placeCandidateCap
		candidates = make([]*cluster.Server, 0, placeCandidateCap)
		for i := 0; i < placeCandidateCap; i++ {
			candidates = append(candidates, servers[(start+i)%len(servers)])
		}
	}
	score := func(s *cluster.Server) int { return s.FreeCores() - p.pending[s.ID] }
	pick := func(skipProbation, needMem bool) *cluster.Server {
		var best *cluster.Server
		for _, s := range candidates {
			if skipProbation && s.OnProbation() {
				continue
			}
			if needMem && s.FreeMemGB() < memGB {
				continue
			}
			if best == nil || score(s) > score(best) {
				best = s
			}
		}
		return best
	}
	for _, attempt := range [][2]bool{{true, true}, {true, false}, {false, false}} {
		if s := pick(attempt[0], attempt[1]); s != nil {
			return s
		}
	}
	panic("faas: no servers")
}

// branchStage runs a branch through core queueing, failures and
// respawns, and straggler mitigation (§4.6): a branch that outlives
// its job's p90 is duplicated elsewhere, and the first finisher wins.
func (p *Platform) branchStage(b, stage int32) {
	br := p.branches.At(b)
	switch stage {
	case pulled:
		p.pending[br.srv.ID]--
		p.execute(b, br)
	case granted:
		br.queueS = p.eng.Now() - br.enq
		execS, straggler := p.sampleExec(br.execBase, br.cv, br.srv)
		p.active.Inc(1)
		// Failure injection: the function dies partway and is respawned,
		// up to three times; then the branch ends at the failure point.
		if p.cfg.FailureProb > 0 && p.eng.Rand().Float64() < p.cfg.FailureProb {
			p.failures++
			br.execS = execS * p.eng.Rand().Float64()
			p.eng.PostIn(br.execS, p.branchKind, b, failed)
			return
		}
		br.execS = execS
		if p.cfg.Mitigate && straggler {
			name := p.invs.At(br.inv).spec.Name
			if hist, ok := p.history[name]; ok && hist.N() >= p.cfg.MitigationMinObs {
				br.threshold = hist.Percentile(mitigationPctl) * 1.2
				if br.threshold > 0 && br.threshold < execS {
					br.refs++
					p.eng.PostIn(br.threshold, p.branchKind, b, overdue)
				}
			}
		}
		p.eng.PostIn(execS, p.branchKind, b, executed)
	case failed:
		br.srv.Cores().Release()
		p.active.Inc(-1)
		if br.attempt >= 3 {
			p.finish(b, br, br.execS)
			return
		}
		br.failedAt[br.attempt], br.failedQ[br.attempt] = br.execS, br.queueS
		p.eng.PostIn(respawnDelayS, p.branchKind, b, respawned)
	case respawned:
		br.attempt++
		p.execute(b, br)
	case executed:
		br.srv.Cores().Release()
		p.active.Inc(-1)
		p.finish(b, br, br.execS)
	case overdue:
		if br.finished {
			p.drop(b, br)
			return
		}
		br.srv.Probation(probationS)
		br.dup = p.cls.LeastLoaded()
		p.eng.PostIn(coldStartS, p.branchKind, b, dupReady)
	case dupReady:
		if br.finished {
			p.drop(b, br)
			return
		}
		br.enq = p.eng.Now()
		br.dup.Cores().Grab(p.branchKind, b, dupGranted)
	case dupGranted:
		br.dupQ = p.eng.Now() - br.enq
		br.dupExec, _ = p.sampleExec(br.execBase, br.cv, br.dup)
		p.active.Inc(1)
		p.eng.PostIn(br.dupExec, p.branchKind, b, dupDone)
	case dupDone:
		br.dup.Cores().Release()
		p.active.Inc(-1)
		p.finish(b, br, br.threshold+coldStartS+br.dupQ+br.dupExec)
	}
}

// execute queues the branch's current attempt on its server's cores.
func (p *Platform) execute(b int32, br *branch) {
	br.enq = p.eng.Now()
	br.srv.Cores().Grab(p.branchKind, b, granted)
}

// finish ends one of the branch's records. The first finisher, after e
// seconds of execution in its attempt, completes the branch.
func (p *Platform) finish(b int32, br *branch, e float64) {
	if !br.finished {
		br.finished = true
		q := br.queueS
		for a := br.attempt - 1; a >= 0; a-- {
			e = br.failedAt[a] + respawnDelayS + e
			q = br.failedQ[a] + q
		}
		inv := p.invs.At(br.inv)
		inv.res.Respawns += br.attempt
		p.warm.put(br.c)
		p.branchDone(br.inv, inv, e, br.instS, br.dataS, q)
	}
	p.drop(b, br)
}

// drop releases one of the branch's pending records, and the branch
// with the last.
func (p *Platform) drop(b int32, br *branch) {
	if br.refs--; br.refs == 0 {
		p.branches.Free(b)
	}
}

// branchDone folds a finished branch into its task, which completes
// when the slowest branch does.
func (p *Platform) branchDone(i int32, inv *invocation, execS, mgmtS, dataS, queueS float64) {
	w := &inv.worst
	w.ExecS, w.MgmtS = max(w.ExecS, execS), max(w.MgmtS, mgmtS)
	w.DataIOS, w.QueueS = max(w.DataIOS, dataS), max(w.QueueS, queueS)
	if inv.remaining--; inv.remaining > 0 {
		return
	}
	r := &inv.res
	r.ExecS += w.ExecS
	r.MgmtS += w.MgmtS
	r.DataIOS += w.DataIOS
	r.QueueS += w.QueueS
	if k := inv.spec.Parallelism; k > 1 {
		// Fan-in: aggregate partial results.
		agg := aggregationBaseS + store.ExchangeS(p.cfg.Protocol, inv.spec.ParentDataMB/float64(k))/4
		r.DataIOS += agg
		p.eng.PostIn(agg, p.invKind, i, aggregated)
		return
	}
	p.complete(i, inv)
}

// complete frees the task's concurrency slot, records its execution
// time and hands its result to the caller.
func (p *Platform) complete(i int32, inv *invocation) {
	p.release()
	inv.res.MgmtS += authS + schedS + p.cfg.SchedulerExtraS
	h := p.history[inv.spec.Name]
	if h == nil {
		h = &stats.Sample{}
		p.history[inv.spec.Name] = h
	}
	h.Add(inv.res.ExecS)
	p.deliver(i)
}

// Reserved is the statically provisioned (IaaS) baseline: a fixed core
// pool, no instantiation overheads, no elasticity.
type Reserved struct {
	calls
	pool *cluster.ReservedPool
	// kind is a branch's record: a = invocation, b = 0 when its core is
	// granted, 1 when it has run.
	kind uint8
}

// NewReserved builds a reserved deployment of n cores.
func NewReserved(eng *sim.Engine, n int) *Reserved {
	r := &Reserved{calls: calls{eng: eng}, pool: cluster.NewReservedPool(eng, n)}
	r.start = r.queue
	r.kind = eng.Handle(r.stage)
	return r
}

// queue queues a task's branches on the pool. Parallelism is bounded by
// the pool size; data sharing is in-process (the long-lived service
// holds its own state).
func (r *Reserved) queue(i int32, inv *invocation) {
	inv.spec.Parallelism = min(inv.spec.Parallelism, r.pool.Size())
	inv.remaining, inv.at = inv.spec.Parallelism, r.eng.Now()
	for range inv.remaining {
		r.pool.Cores().Grab(r.kind, i, 0)
	}
}

// stage runs a branch: a core is granted (ran = 0), or it has run.
// Branches take the maxima as they start; the task ends with the last.
func (r *Reserved) stage(i, ran int32) {
	inv := r.invs.At(i)
	if ran == 0 {
		exec := inv.spec.ExecS / float64(inv.spec.Parallelism)
		if cv := inv.spec.ExecCV; cv > 0 {
			sigma := math.Sqrt(math.Log(1 + cv*cv))
			mu := -sigma * sigma / 2
			exec *= math.Exp(mu + sigma*r.eng.Rand().NormFloat64())
		}
		inv.worst.ExecS = max(inv.worst.ExecS, exec)
		inv.worst.QueueS = max(inv.worst.QueueS, r.eng.Now()-inv.at)
		r.eng.PostIn(exec, r.kind, i, 1)
		return
	}
	r.pool.Cores().Release()
	if inv.remaining--; inv.remaining == 0 {
		inv.res.ExecS, inv.res.QueueS = inv.worst.ExecS, inv.worst.QueueS
		r.deliver(i)
	}
}

// String summarises platform counters.
func (p *Platform) String() string {
	h, m, e := p.warm.stats()
	return fmt.Sprintf("faas: %d invocations, %d failures, warm hits=%d misses=%d expired=%d",
		p.invocations, p.failures, h, m, e)
}
