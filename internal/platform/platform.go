// Package platform assembles the substrates into the complete systems
// the paper compares: Centralized IaaS, Centralized FaaS (OpenWhisk),
// Distributed Edge, HiveMind, and the Fig. 13 ablations. It provides
// the single-tier job runner used by most evaluation figures; the
// multi-phase scenarios build on it in internal/scenario.
package platform

import (
	"fmt"
	"math"

	"hivemind/internal/accel"
	"hivemind/internal/apps"
	"hivemind/internal/cluster"
	"hivemind/internal/device"
	"hivemind/internal/faas"
	"hivemind/internal/geo"
	"hivemind/internal/netsim"
	"hivemind/internal/scheduler"
	"hivemind/internal/sim"
	"hivemind/internal/stats"
	"hivemind/internal/store"
	"hivemind/internal/trace"
)

// SystemKind selects a coordination platform.
type SystemKind int

const (
	// CentralizedIaaS runs all computation on statically provisioned
	// cloud resources of equal cost.
	CentralizedIaaS SystemKind = iota
	// CentralizedFaaS runs all computation on the serverless cloud
	// (stock OpenWhisk behaviour).
	CentralizedFaaS
	// DistributedEdge runs all computation on the devices; only final
	// outputs reach the cloud.
	DistributedEdge
	// HiveMind is the full system: hybrid placement, serverless backend
	// with keep-alive reuse and straggler mitigation, FPGA RPC and
	// remote-memory acceleration.
	HiveMind
)

// String implements fmt.Stringer.
func (k SystemKind) String() string {
	switch k {
	case CentralizedIaaS:
		return "centralized-iaas"
	case CentralizedFaaS:
		return "centralized-faas"
	case DistributedEdge:
		return "distributed-edge"
	case HiveMind:
		return "hivemind"
	default:
		return fmt.Sprintf("system(%d)", int(k))
	}
}

// Options configures a System. The zero value is not usable; start from
// Preset.
type Options struct {
	Kind      SystemKind
	Devices   int
	DeviceCfg device.Config
	NetCfg    netsim.Config
	ClusterCf cluster.Config
	FaasCfg   faas.Config
	Seed      int64

	// Feature toggles (pre-set per Kind; the Fig. 13 ablations flip
	// them).
	NetAccel        bool // FPGA RPC/NIC offload for edge<->cloud and intra-cloud traffic
	RemoteMemAccel  bool // FPGA remote-memory inter-function data sharing
	HybridPlacement bool // per-tier edge/cloud placement (HiveMind synthesis outcome)

	// HybridUploadFrac is the fraction of sensor data HiveMind ships to
	// the cloud after on-board preprocessing (hybrid execution, §4.2);
	// the rest is consumed on-device.
	HybridUploadFrac float64
	// PreprocSPerMB is the on-board cost of the hybrid preprocessing
	// pass (ROI extraction / frame filtering) per MB of sensor data.
	PreprocSPerMB float64

	// FieldM is the side of the square survey field devices sweep.
	FieldM float64

	// WirelessScale multiplies wireless capacity (scalability sweeps
	// scale links proportionately to swarm size).
	WirelessScale float64

	// Trace, if non-nil, records a span per completed task (with its
	// stage decomposition) and instants for device failures — exported
	// as a Chrome trace via internal/trace.
	Trace *trace.Recorder
}

// Preset returns the paper-faithful configuration for a system kind.
func Preset(kind SystemKind, devices int, seed int64) Options {
	o := Options{
		Kind:             kind,
		Devices:          devices,
		DeviceCfg:        device.DroneConfig(),
		NetCfg:           netsim.DefaultConfig(),
		ClusterCf:        cluster.DefaultConfig(),
		Seed:             seed,
		HybridUploadFrac: 0.45,
		PreprocSPerMB:    0.012, // ~80 MB/s ROI extraction on-board
		FieldM:           120,
		WirelessScale:    1,
	}
	switch kind {
	case CentralizedIaaS:
		o.FaasCfg = faas.DefaultConfig()
	case CentralizedFaaS:
		o.FaasCfg = openWhiskConfig()
	case DistributedEdge:
		o.FaasCfg = openWhiskConfig()
	case HiveMind:
		o.FaasCfg = faas.HiveMindConfig(accel.NewFabric())
		o.FaasCfg.WarmStartS = 0.035
		o.NetAccel = true
		o.RemoteMemAccel = true
		o.HybridPlacement = true
	}
	return o
}

// openWhiskConfig is the stock serverless baseline: short-lived
// containers with a brief reuse window, CouchDB data sharing.
func openWhiskConfig() faas.Config {
	c := faas.DefaultConfig()
	c.KeepAliveS = 0.6 // terminates containers shortly after completion
	c.WarmStartS = 0.035
	c.Protocol = store.ProtoCouchDB
	return c
}

// System is a fully wired coordination platform over one simulation
// engine.
type System struct {
	Opts    Options
	Eng     *sim.Engine
	Net     *netsim.Network
	Cluster *cluster.Cluster
	Faas    *faas.Platform
	Fleet   device.Fleet

	regions []geo.Rect

	tasks sim.Slab[task]
	job   *job
	// Record kinds: a task's stage (a = task, b = stage), its result from
	// Faas or a ReservedJob pool (b = invocation), and a job's next
	// submission (a = device).
	stage, invoked, pooled, submit uint8
}

// NewSystem builds and wires a system.
func NewSystem(o Options) *System {
	if o.Devices <= 0 {
		panic("platform: need at least one device")
	}
	eng := sim.NewEngine(o.Seed)
	netCfg := o.NetCfg
	netCfg.RPCAccel = o.NetAccel
	clsCfg := o.ClusterCf
	if o.NetAccel {
		clsCfg.NetStackCoresPerServer = 0 // offload frees the stack cores
	}
	faasCfg := o.FaasCfg
	if !o.RemoteMemAccel && faasCfg.Protocol == store.ProtoRemoteMem {
		faasCfg.Protocol = store.ProtoCouchDB
		faasCfg.Fabric = nil
	}
	// Controller decision engine: one scheduler thread makes a decision
	// in ~0.2 ms; HiveMind adds shards when the swarm's aggregate task
	// rate would saturate it (§5.6: "multiple schedulers, each
	// responsible for a subset of tasks").
	const decisionS = 0.0002
	shards := 1
	if o.Kind == HiveMind {
		// ~2 tasks/s/device headroom against the 5000/s shard limit.
		shards = 1 + o.Devices*2/int(1/decisionS)
	}
	faasCfg.Scheduler = scheduler.NewSharded(eng, shards, decisionS)

	s := &System{Opts: o, Eng: eng}
	s.stage = eng.Handle(s.onStage)
	s.invoked = eng.Handle(s.onInvoked)
	s.pooled = eng.Handle(s.onPooled)
	s.submit = eng.Handle(s.onSubmit)
	s.Net = netsim.NewNetwork(eng, netCfg)
	if o.WirelessScale != 1 && o.WirelessScale > 0 {
		s.Net.ScaleWireless(o.WirelessScale)
	}
	s.Cluster = cluster.New(eng, clsCfg)
	s.Faas = faas.New(eng, s.Cluster, faasCfg)
	s.Fleet = device.NewFleet(eng, o.Devices, o.DeviceCfg, func(d *device.Device) {
		if o.Trace != nil {
			o.Trace.Mark(trace.Instant{
				Name: "device-failure", Track: fmt.Sprintf("device-%d", d.ID),
				AtS: eng.Now(), Global: true,
			})
		}
	})

	// Divide the field and start the survey sweep (§2.1: "at time zero,
	// the field is divided equally among the drones").
	field := geo.NewField(o.FieldM, o.FieldM)
	s.regions = geo.Partition(field, o.Devices)
	for i, d := range s.Fleet {
		d.AssignRegion(s.regions[i])
	}
	return s
}

// Regions returns the current field partition (one region per device).
func (s *System) Regions() []geo.Rect { return s.regions }

// TierPlacement says where a tier of computation runs under this
// system.
type TierPlacement int

const (
	TierCloud TierPlacement = iota
	TierEdge
	TierHybrid
)

// String implements fmt.Stringer.
func (p TierPlacement) String() string {
	switch p {
	case TierEdge:
		return "edge"
	case TierHybrid:
		return "hybrid"
	default:
		return "cloud"
	}
}

// PlaceFor decides a single-tier job's placement under this system —
// the outcome HiveMind's synthesis search arrives at (§4.2), encoded:
// pinned-edge tasks stay on-board, light tasks whose network cost
// exceeds their compute cost run on the edge, heavy tasks run hybrid.
func (s *System) PlaceFor(p apps.Profile) TierPlacement {
	switch s.Opts.Kind {
	case DistributedEdge:
		return TierEdge
	case CentralizedIaaS, CentralizedFaaS:
		return TierCloud
	}
	// HiveMind (or custom hybrid-capable systems).
	if !s.Opts.HybridPlacement {
		return TierCloud
	}
	if p.PinEdge {
		return TierEdge
	}
	if p.EdgeUtilization() < 0.8 && p.EdgeExecS < 2.5*p.CloudExecS {
		// Light enough for the device and not much slower there: keep it
		// local and save the radio (S3 drone detection, S7 weather).
		return TierEdge
	}
	return TierHybrid
}

// TaskMetrics is one completed task's accounting.
type TaskMetrics struct {
	Start    sim.Time
	End      sim.Time
	Network  float64
	Mgmt     float64
	DataIO   float64
	Exec     float64
	Dropped  bool
	Respawns int
}

// TotalS returns end-to-end latency.
func (m TaskMetrics) TotalS() float64 { return m.End - m.Start }

// sampleEdgeExec draws an on-board service time: the intrinsic
// variability (thermal throttling, SD-card I/O, background autonomy
// work) that makes distributed execution "poor and unpredictable"
// (§2.3).
func (s *System) sampleEdgeExec(base, cv float64) float64 {
	if cv <= 0 {
		return base
	}
	sigma := math.Sqrt(math.Log(1 + cv*cv))
	mu := -sigma * sigma / 2
	t := base * math.Exp(mu+sigma*s.Eng.Rand().NormFloat64())
	if t < 1e-6 {
		t = 1e-6
	}
	return t
}

// SubmitOpts tunes one task submission.
type SubmitOpts struct {
	// ForcePlacement overrides the system's placement decision.
	ForcePlacement *TierPlacement
	// InputScale scales the sensor payload (resolution sweeps).
	InputScale float64
}

// task is one submitted task in flight.
type task struct {
	p          apps.Profile
	dev        *device.Device
	placement  TierPlacement
	inputScale float64
	inMB       float64 // the input shipped to the cloud
	netStart   sim.Time
	m          TaskMetrics
	done       func(TaskMetrics)
}

// Task stages (b of record kind stage).
const (
	edgeRan     int32 = iota // the on-board run of an edge task ended
	preRan                   // a hybrid task's on-board preprocessing ended
	uploaded                 // the input reached the cloud
	shipped                  // the output reached its destination
	resUploaded              // ReservedJob: the input reached the pool
	resShipped               // ReservedJob: the result reached the device
)

// SubmitTask runs one task of the given application through the system
// and reports metrics. done may be nil.
func (s *System) SubmitTask(p apps.Profile, dev *device.Device, opts SubmitOpts, done func(TaskMetrics)) {
	if opts.InputScale <= 0 {
		opts.InputScale = 1
	}
	placement := s.PlaceFor(p)
	if opts.ForcePlacement != nil {
		placement = *opts.ForcePlacement
	}
	i, t := s.tasks.New()
	t.p, t.dev, t.placement, t.inputScale, t.done = p, dev, placement, opts.InputScale, done
	t.m.Start = s.Eng.Now()
	if dev.Failed() {
		t.m.Dropped = true
		s.finish(i, t)
		return
	}
	switch placement {
	case TierEdge:
		// Edge devices show ~2x the cloud's intrinsic variability (thermal
		// and I/O effects on a passively-cooled ARM board).
		dev.RunTask(s.sampleEdgeExec(p.EdgeExecS, 2*p.ExecCV), s.stage, i, edgeRan)
	case TierCloud:
		s.upload(i, t)
	case TierHybrid:
		// Preprocess on-board (cheap, data-proportional ROI extraction),
		// ship the reduced payload, finish in the cloud.
		dev.RunTask(s.sampleEdgeExec(p.InputMB*s.Opts.PreprocSPerMB, p.ExecCV), s.stage, i, preRan)
	}
}

// hybridEdgeWorkFrac is the fraction of a hybrid task's recognition
// work that on-board preprocessing subsumes (reduces cloud execution).
const hybridEdgeWorkFrac float64 = 0.05

// upload ships the task's input, reduced for a hybrid task, to the
// cloud.
func (s *System) upload(i int32, t *task) {
	frac := 1.0
	if t.placement == TierHybrid {
		frac = s.Opts.HybridUploadFrac
	}
	t.inMB = t.p.InputMB * t.inputScale * frac
	t.dev.Transmit(t.inMB)
	s.ship(i, t, t.inMB, uploaded)
}

// ship moves mb over the wireless hop; stage runs when it arrives.
func (s *System) ship(i int32, t *task, mb float64, stage int32) {
	t.netStart = s.Eng.Now()
	s.Net.EdgeToCloud(mb*1e6, s.stage, i, stage)
}

func (s *System) onStage(i, stage int32) {
	t := s.tasks.At(i)
	switch stage {
	case edgeRan, preRan:
		out := t.dev.Outcome()
		if out.Dropped {
			t.m.Dropped = true
			s.finish(i, t)
			return
		}
		t.m.Exec += out.ExecS + out.QueueS
		if stage == preRan {
			s.upload(i, t)
			return
		}
		// Ship the final output to the backend.
		t.dev.Transmit(t.p.OutputMB)
		s.ship(i, t, t.p.OutputMB, shipped)
	case uploaded:
		t.m.Network += s.Eng.Now() - t.netStart
		// Serverless systems split a task across parallel functions;
		// reserved IaaS, and an edge swarm forced to the cloud, run it
		// whole. A hybrid task's preprocessing did part of the work.
		par, workDone := 1, 0.0
		if s.Opts.Kind == CentralizedFaaS || s.Opts.Kind == HiveMind {
			par = t.p.Parallelism
		}
		if t.placement == TierHybrid {
			workDone = hybridEdgeWorkFrac
		}
		s.Faas.Call(faas.FunctionSpec{
			Name:         string(t.p.ID),
			ExecS:        t.p.CloudExecS * (1 - workDone),
			Parallelism:  par,
			MemGB:        t.p.MemGB,
			ExecCV:       t.p.ExecCV,
			ParentDataMB: t.inMB, // functions fetch sensor data from the store
		}, s.invoked, i)
	case shipped:
		t.m.Network += s.Eng.Now() - t.netStart
		s.finish(i, t)
	case resUploaded:
		t.m.Network = s.Eng.Now() - t.netStart
		// Fixed deployments run each task as a single process;
		// intra-task fan-out is a serverless benefit (§3.2).
		s.job.pool.Call(faas.FunctionSpec{
			Name: string(t.p.ID), ExecS: t.p.CloudExecS, Parallelism: 1,
			MemGB: t.p.MemGB, ExecCV: t.p.ExecCV,
		}, s.pooled, i)
	case resShipped:
		res := s.job.res
		res.Completed++
		res.Latency.Add(s.Eng.Now() - t.m.Start)
		res.Breakdown.Record(map[stats.Stage]float64{
			stats.StageNetwork:   t.m.Network + (s.Eng.Now() - t.netStart),
			stats.StageExecution: t.m.Exec,
		})
		s.tasks.Free(i)
	}
}

// onInvoked books task i's result from Faas invocation inv and sends
// the response back to the device.
func (s *System) onInvoked(i, inv int32) {
	t := s.tasks.At(i)
	r := s.Faas.Result(inv)
	t.m.Mgmt += r.MgmtS + r.QueueS
	t.m.DataIO += r.DataIOS
	t.m.Exec += r.ExecS
	t.m.Respawns += r.Respawns
	t.dev.Receive(t.p.OutputMB)
	s.ship(i, t, t.p.OutputMB, shipped)
}

// onPooled is onInvoked for a ReservedJob task, run by the job's pool.
func (s *System) onPooled(i, inv int32) {
	t := s.tasks.At(i)
	r := s.job.pool.Result(inv)
	t.m.Exec = r.ExecS + r.QueueS
	t.dev.Receive(t.p.OutputMB)
	s.ship(i, t, t.p.OutputMB, resShipped)
}

// finish records a task's end and hands its metrics to the submitter.
func (s *System) finish(i int32, t *task) {
	m, done := &t.m, t.done
	m.End = s.Eng.Now()
	if tr := s.Opts.Trace; tr != nil {
		tr.Add(trace.Span{
			Name:     string(t.p.ID),
			Category: t.placement.String(),
			Track:    fmt.Sprintf("device-%d", t.dev.ID),
			StartS:   m.Start,
			EndS:     m.End,
			Args: map[string]string{
				"network": fmt.Sprintf("%.4f", m.Network),
				"mgmt":    fmt.Sprintf("%.4f", m.Mgmt),
				"dataio":  fmt.Sprintf("%.4f", m.DataIO),
				"exec":    fmt.Sprintf("%.4f", m.Exec),
				"dropped": fmt.Sprintf("%v", m.Dropped),
			},
		})
	}
	metrics := *m
	s.tasks.Free(i)
	if done != nil {
		done(metrics)
	}
}

// JobResult aggregates a single-tier job run (one application, all
// devices, fixed duration).
type JobResult struct {
	Latency     *stats.Sample
	Breakdown   *stats.Breakdown
	Submitted   int
	Completed   int
	BatteryMean float64 // mean consumed fraction across devices
	BatteryMax  float64
	BWMeanMBps  float64 // wireless bandwidth over the run
	BWp99MBps   float64
	Respawns    int
}

// job is the single-tier job RunJob or ReservedJob drives: every device
// submits a task of p each period, jittered ±20%, until durationS.
type job struct {
	p         apps.Profile
	durationS float64
	period    float64
	res       *JobResult
	done      func(TaskMetrics) // RunJob's accounting
	pool      *faas.Reserved    // ReservedJob's pool
}

// onSubmit submits device d's next task and schedules the one after.
func (s *System) onSubmit(d, _ int32) {
	j := s.job
	if s.Eng.Now() >= j.durationS {
		return
	}
	j.res.Submitted++
	dev := s.Fleet[d]
	if j.pool == nil {
		s.SubmitTask(j.p, dev, SubmitOpts{}, j.done)
	} else {
		i, t := s.tasks.New()
		t.p, t.dev, t.inMB = j.p, dev, j.p.InputMB
		t.m.Start = s.Eng.Now()
		dev.Transmit(t.inMB)
		s.ship(i, t, t.inMB, resUploaded)
	}
	s.Eng.PostIn(j.period*(0.8+0.4*s.Eng.Rand().Float64()), s.submit, d, 0)
}

// run drives j: it staggers each device's first submission across one
// period, runs the job, drains in-flight tasks for drainS (bounded),
// then lets keep-alive timers and residual events drain.
func (s *System) run(j *job, drainS float64) JobResult {
	s.job = j
	j.period = 1.0 / j.p.TaskRatePerDevice
	rng := s.Eng.Rand()
	for d := range s.Fleet {
		s.Eng.Post(rng.Float64()*j.period, s.submit, int32(d), 0)
	}
	s.Eng.RunUntil(j.durationS)
	s.Eng.RunUntil(j.durationS + drainS)
	s.Fleet.Settle()
	s.Fleet.StopAll()
	s.Eng.Run()

	res := j.res
	res.BatteryMean = s.Fleet.MeanBatteryConsumed()
	res.BatteryMax = s.Fleet.MaxBatteryConsumed()
	bw := s.Net.Wireless.Meter().RateSample(j.durationS)
	res.BWMeanMBps = bw.Mean() / 1e6
	res.BWp99MBps = bw.Percentile(99) / 1e6
	return *res
}

// RunJob drives one application at its default per-device rate for
// durationS seconds, then drains in-flight tasks, and reports
// aggregate metrics (the paper runs each job for 120 s).
func (s *System) RunJob(p apps.Profile, durationS float64) JobResult {
	res := &JobResult{Latency: &stats.Sample{}, Breakdown: stats.NewBreakdown()}
	return s.run(&job{p: p, durationS: durationS, res: res, done: func(m TaskMetrics) {
		if m.Dropped {
			return
		}
		res.Completed++
		res.Latency.Add(m.TotalS())
		res.Breakdown.Record(map[stats.Stage]float64{
			stats.StageNetwork:    m.Network,
			stats.StageManagement: m.Mgmt,
			stats.StageDataIO:     m.DataIO,
			stats.StageExecution:  m.Exec,
		})
		res.Respawns += m.Respawns
	}}, 60)
}

// ReservedJob runs a job on a statically provisioned pool (the
// Centralized IaaS baseline): all computation in the cloud on
// sizeCores cores of reserved capacity. sizeCores <= 0 provisions for
// the average demand ("statically provisioned cloud resources of equal
// cost").
func (s *System) ReservedJob(p apps.Profile, durationS float64, sizeCores int) JobResult {
	if sizeCores <= 0 {
		demand := p.TaskRatePerDevice * float64(s.Opts.Devices) * p.CloudExecS
		sizeCores = int(math.Ceil(demand))
		if sizeCores < 1 {
			sizeCores = 1
		}
	}
	res := &JobResult{Latency: &stats.Sample{}, Breakdown: stats.NewBreakdown()}
	return s.run(&job{p: p, durationS: durationS, res: res, pool: faas.NewReserved(s.Eng, sizeCores)}, 120)
}
