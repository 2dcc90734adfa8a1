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
	eng *sim.Engine
	cls *cluster.Cluster
	cfg Config

	warm     *warmPool
	inFlight int
	waiting  []func()
	pending  map[int]int // server id -> placed-but-not-yet-running branches

	active  stats.Gauge // running functions and their peak (Fig. 5c)
	history map[string]*stats.Sample

	invocations int
	failures    int
	placeCursor int
}

// New builds a platform over a cluster.
func New(eng *sim.Engine, cls *cluster.Cluster, cfg Config) *Platform {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1000
	}
	return &Platform{
		eng:     eng,
		cls:     cls,
		cfg:     cfg,
		warm:    newWarmPool(eng, cfg.KeepAliveS),
		history: make(map[string]*stats.Sample),
		pending: make(map[int]int),
	}
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
func (p *Platform) dataShareS(spec FunctionSpec) float64 {
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

// admit runs fn when a concurrency slot is free, in arrival order.
func (p *Platform) admit(fn func()) {
	if p.inFlight < p.cfg.MaxInFlight {
		p.inFlight++
		fn()
		return
	}
	p.waiting = append(p.waiting, fn)
}

func (p *Platform) release() {
	p.inFlight--
	if len(p.waiting) > 0 && p.inFlight < p.cfg.MaxInFlight {
		next := p.waiting[0]
		p.waiting = p.waiting[1:]
		p.inFlight++
		next()
	}
}

// Invoke submits a task. done receives the Result when the task (all
// parallel branches) completes.
func (p *Platform) Invoke(spec FunctionSpec, done func(Result)) {
	if spec.Parallelism < 1 {
		spec.Parallelism = 1
	}
	p.invocations++
	res := &Result{}

	mgmtFixed := authS + schedS + p.cfg.SchedulerExtraS
	seq := uint64(p.invocations)
	schedule := func(fn func(extraMgmt float64)) {
		if p.cfg.Scheduler == nil {
			p.eng.Defer(mgmtFixed, func() { fn(0) })
			return
		}
		// Auth first, then queue on the controller shard responsible for
		// this task.
		p.eng.Defer(authS+p.cfg.SchedulerExtraS, func() {
			p.cfg.Scheduler.Decide(seq, func(lat sim.Time) { fn(lat - schedS) })
		})
	}
	admitAt := sim.Time(0)
	schedule(func(extraMgmt float64) {
		if extraMgmt > 0 {
			res.MgmtS += extraMgmt
		}
		admitAt = p.eng.Now()
		p.admit(func() {
			res.QueueS += p.eng.Now() - admitAt
			p.runBranches(spec, res, func() {
				p.release()
				res.MgmtS += mgmtFixed
				if s, ok := p.history[spec.Name]; ok {
					s.Add(res.ExecS)
				} else {
					ns := &stats.Sample{}
					ns.Add(res.ExecS)
					p.history[spec.Name] = ns
				}
				done(*res)
			})
		})
	})
}

// runBranches fans the task out over its parallel branches and calls
// done when the slowest finishes.
func (p *Platform) runBranches(spec FunctionSpec, res *Result, done func()) {
	k := spec.Parallelism
	perBranch := spec.ExecS / float64(k)
	remaining := k
	var maxExec, maxMgmt, maxData, maxQueue float64
	branchDone := func(execS, mgmtS, dataS, queueS float64) {
		if execS > maxExec {
			maxExec = execS
		}
		if mgmtS > maxMgmt {
			maxMgmt = mgmtS
		}
		if dataS > maxData {
			maxData = dataS
		}
		if queueS > maxQueue {
			maxQueue = queueS
		}
		remaining--
		if remaining == 0 {
			res.ExecS += maxExec
			res.MgmtS += maxMgmt
			res.DataIOS += maxData
			res.QueueS += maxQueue
			if k > 1 {
				// Fan-in: aggregate partial results.
				agg := aggregationBaseS + store.ExchangeS(p.cfg.Protocol, spec.ParentDataMB/float64(k))/4
				res.DataIOS += agg
				p.eng.Defer(agg, done)
				return
			}
			done()
		}
	}
	for i := 0; i < k; i++ {
		p.runOne(spec, perBranch, res, branchDone)
	}
}

// runOne executes a single branch: container acquisition, data pull,
// core execution, failure respawn, straggler duplicate.
func (p *Platform) runOne(spec FunctionSpec, execBase float64, res *Result, done func(execS, mgmtS, dataS, queueS float64)) {
	// Container: warm pool > cold start.
	instS := p.cfg.WarmStartS
	c := p.warm.take(spec.Name)
	if c == nil {
		srv := p.placeServer(spec.MemGB)
		memGB := spec.MemGB
		if !srv.ReserveMemGB(memGB) {
			memGB = 0 // cluster-wide memory pressure: over-commit, untracked
		}
		c = &container{fn: spec.Name, server: srv, memGB: memGB}
		instS = coldStartS
	}
	dataS := p.dataShareS(spec)

	p.pending[c.server.ID]++
	p.eng.Defer(instS+dataS, func() {
		p.pending[c.server.ID]--
		p.executeOn(c, spec, execBase, res, 0, func(execS float64, queueS float64) {
			p.warm.put(c)
			done(execS, instS, dataS, queueS)
		})
	})
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

// executeOn queues the branch on the container's server cores and
// handles failures and straggler mitigation. attempt counts respawns.
func (p *Platform) executeOn(c *container, spec FunctionSpec, execBase float64, res *Result, attempt int, done func(execS, queueS float64)) {
	srv := c.server
	enq := p.eng.Now()
	srv.Cores().Grab(func() {
		queueS := p.eng.Now() - enq
		execS, straggler := p.sampleExec(execBase, spec.ExecCV, srv)
		p.active.Inc(1)

		// Failure injection: the function dies partway and is respawned,
		// up to three times; then the branch ends at the failure point.
		if p.cfg.FailureProb > 0 && p.eng.Rand().Float64() < p.cfg.FailureProb {
			if attempt >= 3 {
				p.failures++
				failAt := execS * p.eng.Rand().Float64()
				p.eng.Defer(failAt, func() {
					srv.Cores().Release()
					p.active.Inc(-1)
					done(failAt, queueS)
				})
				return
			}
			p.failures++
			failAt := execS * p.eng.Rand().Float64()
			p.eng.Defer(failAt, func() {
				srv.Cores().Release()
				p.active.Inc(-1)
				p.eng.Defer(respawnDelayS, func() {
					p.executeOn(c, spec, execBase, res, attempt+1, func(e2, q2 float64) {
						res.Respawns++
						done(failAt+respawnDelayS+e2, queueS+q2)
					})
				})
			})
			return
		}

		finished := false
		finish := func(e float64) {
			if finished {
				return
			}
			finished = true
			done(e, queueS)
		}

		// Straggler mitigation (§4.6): if the branch outlives the job's
		// p90, respawn a duplicate elsewhere and take the first result.
		if p.cfg.Mitigate && straggler {
			if hist, ok := p.history[spec.Name]; ok && hist.N() >= p.cfg.MitigationMinObs {
				threshold := hist.Percentile(mitigationPctl) * 1.2
				if threshold > 0 && threshold < execS {
					p.eng.Defer(threshold, func() {
						if finished {
							return
						}
						srv.Probation(probationS)
						dup := &container{fn: spec.Name, server: p.cls.LeastLoaded(), memGB: spec.MemGB}
						p.eng.Defer(coldStartS, func() {
							if finished {
								return
							}
							dupEnq := p.eng.Now()
							dup.server.Cores().Grab(func() {
								dupQ := p.eng.Now() - dupEnq
								dupExec, _ := p.sampleExec(execBase, spec.ExecCV, dup.server)
								p.active.Inc(1)
								p.eng.Defer(dupExec, func() {
									dup.server.Cores().Release()
									p.active.Inc(-1)
									finish(threshold + coldStartS + dupQ + dupExec)
								})
							})
						})
					})
				}
			}
		}

		p.eng.Defer(execS, func() {
			srv.Cores().Release()
			p.active.Inc(-1)
			finish(execS)
		})
	})
}

// Reserved is the statically provisioned (IaaS) baseline: a fixed core
// pool, no instantiation overheads, no elasticity.
type Reserved struct {
	eng  *sim.Engine
	pool *cluster.ReservedPool
}

// NewReserved builds a reserved deployment of n cores.
func NewReserved(eng *sim.Engine, n int) *Reserved {
	return &Reserved{eng: eng, pool: cluster.NewReservedPool(eng, n)}
}

// Invoke runs a task on the reserved pool. Parallelism is bounded by
// the pool size; data sharing is in-process (the long-lived service
// holds its own state).
func (r *Reserved) Invoke(spec FunctionSpec, done func(Result)) {
	if spec.Parallelism < 1 {
		spec.Parallelism = 1
	}
	k := spec.Parallelism
	if k > r.pool.Size() {
		k = r.pool.Size()
	}
	res := &Result{}
	perBranch := spec.ExecS / float64(k)
	remaining := k
	var maxExec, maxQueue float64
	for i := 0; i < k; i++ {
		enq := r.eng.Now()
		r.pool.Cores().Grab(func() {
			q := r.eng.Now() - enq
			exec := perBranch
			if spec.ExecCV > 0 {
				sigma := math.Sqrt(math.Log(1 + spec.ExecCV*spec.ExecCV))
				mu := -sigma * sigma / 2
				exec *= math.Exp(mu + sigma*r.eng.Rand().NormFloat64())
			}
			r.eng.Defer(exec, func() {
				r.pool.Cores().Release()
				if exec > maxExec {
					maxExec = exec
				}
				if q > maxQueue {
					maxQueue = q
				}
				remaining--
				if remaining == 0 {
					res.ExecS = maxExec
					res.QueueS = maxQueue
					done(*res)
				}
			})
		})
	}
}

// String summarises platform counters.
func (p *Platform) String() string {
	h, m, e := p.warm.stats()
	return fmt.Sprintf("faas: %d invocations, %d failures, warm hits=%d misses=%d expired=%d",
		p.invocations, p.failures, h, m, e)
}
