// Package scenario implements the paper's end-to-end multi-phase
// missions: Scenario A (locating 15 stationary tennis balls, §2.1),
// Scenario B (counting 25 moving people with deduplication), and the
// robotic-car Treasure Hunt and Maze of §5.5. Each runs on a wired
// platform.System, so the same mission exercises Centralized IaaS/FaaS,
// Distributed Edge and HiveMind with all their substrates engaged —
// the pipelines behind Figs. 1, 4b, 11b, 14, 16 and 17.
package scenario

import (
	"fmt"
	"math"

	"hivemind/internal/apps"
	"hivemind/internal/controller"
	"hivemind/internal/device"
	"hivemind/internal/platform"
	"hivemind/internal/sim"
	"hivemind/internal/stats"
)

// Kind selects a mission.
type Kind int

const (
	// ScenarioA: stationary item search (tennis balls in a field).
	ScenarioA Kind = iota
	// ScenarioB: moving-people counting with deduplication.
	ScenarioB
	// TreasureHunt: rovers follow text panels to a target (§5.5).
	TreasureHunt
	// Maze: rovers navigate an unknown maze (§5.5).
	Maze
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ScenarioA:
		return "scenario-a"
	case ScenarioB:
		return "scenario-b"
	case TreasureHunt:
		return "treasure-hunt"
	default:
		return "maze"
	}
}

// Config parameterises a mission run.
type Config struct {
	System platform.Options
	// Items is the target count: tennis balls (A, default 15), people
	// (B, default 25), panels per rover (TreasureHunt, default 6), or
	// maze decision points per rover (Maze, default 40).
	Items int
	// MaxDurationS caps simulated time; incomplete missions are
	// extrapolated from the discovery rate beyond the cap.
	MaxDurationS float64
	// DetectProb is the per-pass probability a device spots a person in
	// its region (Scenario B).
	DetectProb float64
	// FailDeviceID, if >= 0, injects a device failure at FailAtS seconds
	// (the §4.6 / Fig. 10 fault-tolerance scenario). Under HiveMind the
	// centralized controller detects the missing heartbeats and
	// repartitions the lost region to battery-sufficient neighbours;
	// the baselines lose the region's coverage.
	FailDeviceID int
	FailAtS      float64
	// KillControllerAtS, if >= 0, crashes the active controller replica
	// at that simulated second (§4.7): a hot standby takes over after the
	// configured failover delay, and the run's Result.Failover reports
	// the election/failover counters. Only meaningful under HiveMind.
	KillControllerAtS float64
}

// DefaultConfig builds a mission config over a system preset.
func DefaultConfig(kind Kind, sys platform.Options) Config {
	c := Config{System: sys, MaxDurationS: 400, DetectProb: 0.75, FailDeviceID: -1,
		KillControllerAtS: -1}
	switch kind {
	case ScenarioA:
		c.Items = 15
	case ScenarioB:
		c.Items = 25
	case TreasureHunt:
		c.Items = 6
		c.System.DeviceCfg = device.RoverConfig()
		c.System.FieldM = 60
	case Maze:
		c.Items = 40
		c.System.DeviceCfg = device.RoverConfig()
		c.System.FieldM = 40
	}
	return c
}

// Result reports a mission run.
type Result struct {
	Kind         Kind
	System       platform.SystemKind
	CompletionS  float64 // wall-clock mission time (extrapolated if capped)
	Completed    bool    // finished within the cap without extrapolation
	Found        int     // items/people found within the cap
	BatteryMean  float64
	BatteryMax   float64
	BatteryDead  int // devices that ran out of battery
	BWMeanMBps   float64
	BWp99MBps    float64
	TaskLatency  *stats.Sample    // per-pipeline-instance latency
	Breakdown    *stats.Breakdown // stage decomposition of pipeline latency
	Repartitions int
	// Failover snapshots the controller-replication counters (elections,
	// takeovers, failover latency) when the mission ran a controller.
	Failover *controller.FailoverStats
}

// String summarises the result.
func (r Result) String() string {
	return fmt.Sprintf("%s on %s: %.1fs (complete=%v, found=%d, battery=%.1f%%, bw=%.1fMB/s)",
		r.Kind, r.System, r.CompletionS, r.Completed, r.Found, r.BatteryMean*100, r.BWMeanMBps)
}

// frameBatchProfile is the continuous scanning pipeline each device
// feeds: one task per second consuming the full 8 fps × frame-size
// capture (§2.1). Recognition parameters follow S1/S2.
func frameBatchProfile(k Kind, frameMB, fps float64) apps.Profile {
	batchMB := frameMB * fps // 1-second batch
	switch k {
	case ScenarioA:
		return apps.Profile{
			ID: "ScA-rec", Name: "item recognition",
			CloudExecS: 0.7, EdgeExecS: 3.0, Parallelism: 8,
			InputMB: batchMB, OutputMB: 0.05, IntermediateMB: 1,
			TaskRatePerDevice: 1.0, MemGB: 2, ExecCV: 0.15,
		}
	case ScenarioB:
		return apps.Profile{
			ID: "ScB-rec", Name: "people recognition",
			CloudExecS: 0.8, EdgeExecS: 3.5, Parallelism: 8,
			InputMB: batchMB, OutputMB: 0.2, IntermediateMB: 1,
			TaskRatePerDevice: 1.0, MemGB: 2, ExecCV: 0.15,
		}
	case TreasureHunt:
		// Image-to-text conversion of instruction panels (S9-like).
		return apps.Profile{
			ID: "TH-ocr", Name: "panel OCR",
			CloudExecS: 1.2, EdgeExecS: 5.0, Parallelism: 16,
			InputMB: 4, OutputMB: 0.02, IntermediateMB: 0.5,
			TaskRatePerDevice: 0.3, MemGB: 1.5, ExecCV: 0.15,
		}
	default: // Maze
		return apps.Profile{
			ID: "MZ-step", Name: "maze step planning",
			CloudExecS: 0.5, EdgeExecS: 1.4, Parallelism: 2,
			InputMB: 0.8, OutputMB: 0.01, IntermediateMB: 0.1,
			TaskRatePerDevice: 0.5, MemGB: 0.5, ExecCV: 0.12,
		}
	}
}

// dedupProfile is Scenario B's second tier: FaceNet embedding
// comparison across sightings (S5-like). Its input is the recognition
// tier's output embeddings, not raw frames.
func dedupProfile() apps.Profile {
	return apps.Profile{
		ID: "ScB-dedup", Name: "people deduplication",
		CloudExecS: 1.0, EdgeExecS: 4.5, Parallelism: 8,
		InputMB: 0.2, OutputMB: 0.05, IntermediateMB: 0.2,
		TaskRatePerDevice: 0.5, MemGB: 2, ExecCV: 0.18,
	}
}

// Run executes the mission.
func Run(kind Kind, cfg Config) Result {
	switch kind {
	case ScenarioA:
		return runSearch(kind, cfg, false)
	case ScenarioB:
		return runSearch(kind, cfg, true)
	case TreasureHunt, Maze:
		return runRoverMission(kind, cfg)
	default:
		panic("scenario: unknown kind")
	}
}

// runSearch covers Scenario A (dedup=false) and B (dedup=true).
func runSearch(kind Kind, cfg Config, dedup bool) Result {
	sys := platform.NewSystem(cfg.System)
	eng := sys.Eng
	rng := eng.Rand()
	res := Result{Kind: kind, System: cfg.System.Kind,
		TaskLatency: &stats.Sample{}, Breakdown: stats.NewBreakdown()}

	rec := frameBatchProfile(kind, cfg.System.DeviceCfg.FrameMB, cfg.System.DeviceCfg.FPS)
	ddp := dedupProfile()

	// HiveMind runs the centralized controller: heartbeat-based failure
	// detection and load repartitioning (§4.6).
	repartitioned := false
	var ctl *controller.Controller
	if cfg.System.Kind == platform.HiveMind {
		ccfg := cfg.System.CtrlCfg
		if ccfg.HeartbeatTimeoutS <= 0 { // hand-built Options without Preset
			ccfg = controller.DefaultConfig()
		}
		ctl = controller.New(eng, ccfg, sys.Fleet, sys.Regions(),
			func(failed int, gainers []int) {
				res.Repartitions++
				repartitioned = true
			})
		defer ctl.Stop()
		if cfg.KillControllerAtS >= 0 {
			// §4.7 controller-crash drill: the active replica dies
			// mid-mission and a hot standby takes over.
			eng.DeferAt(cfg.KillControllerAtS, func() { ctl.KillActiveReplica() })
		}
	}
	if cfg.FailDeviceID >= 0 && cfg.FailDeviceID < len(sys.Fleet) {
		id := cfg.FailDeviceID
		eng.DeferAt(cfg.FailAtS, func() { sys.Fleet[id].Fail() })
	}

	found := make([]bool, cfg.Items)
	foundCount := 0
	var foundTimes []sim.Time
	missionDone := false
	var completion sim.Time

	maybeFinish := func() {
		if foundCount >= cfg.Items && !missionDone {
			missionDone = true
			completion = eng.Now()
			eng.Stop()
		}
	}

	// A sighting pipeline: recognition (+ dedup for B). On success the
	// item is marked found.
	processSighting := func(d *device.Device, item int) {
		start := eng.Now()
		record := func(m platform.TaskMetrics, extraNet, extraMgmt, extraIO, extraExec float64, ok bool) {
			if !ok {
				return
			}
			res.TaskLatency.Add(eng.Now() - start)
			res.Breakdown.Record(map[stats.Stage]float64{
				stats.StageNetwork:    m.Network + extraNet,
				stats.StageManagement: m.Mgmt + extraMgmt,
				stats.StageDataIO:     m.DataIO + extraIO,
				stats.StageExecution:  m.Exec + extraExec,
			})
			if item >= 0 && !found[item] {
				found[item] = true
				foundCount++
				foundTimes = append(foundTimes, eng.Now())
				maybeFinish()
			}
		}
		sys.SubmitTask(rec, d, platform.SubmitOpts{}, func(m platform.TaskMetrics) {
			if m.Dropped {
				return
			}
			if !dedup {
				record(m, 0, 0, 0, 0, true)
				return
			}
			// Tier 2: deduplication consumes the recognition output.
			sys.SubmitTask(ddp, d, platform.SubmitOpts{}, func(m2 platform.TaskMetrics) {
				if m2.Dropped {
					return
				}
				record(m, m2.Network, m2.Mgmt, m2.DataIO, m2.Exec, true)
			})
		})
	}

	// Continuous scanning load: every device ships/processes one frame
	// batch per second while the mission runs (this is what congests the
	// centralized network).
	for _, d := range sys.Fleet {
		d := d
		var scan func()
		scan = func() {
			if missionDone || d.Failed() {
				return
			}
			sys.SubmitTask(rec, d, platform.SubmitOpts{}, func(platform.TaskMetrics) {})
			eng.Defer(1.0*(0.9+0.2*rng.Float64()), scan)
		}
		eng.DeferAt(rng.Float64(), scan)
	}

	// Sighting schedule.
	if !dedup {
		// Scenario A: items are static; a device spots item i when its
		// sweep passes the item's position — a fixed fraction of the
		// region sweep.
		perRegion := distributeItems(cfg.Items, cfg.System.Devices, rng)
		for dev := 0; dev < cfg.System.Devices; dev++ {
			items := perRegion[dev]
			d := sys.Fleet[dev]
			sweep := d.SweepTimeS()
			for _, it := range items {
				it := it
				at := rng.Float64() * sweep
				var try func()
				try = func() {
					if missionDone || found[it] {
						return
					}
					if d.Failed() {
						// The item sits in a dead device's region. Only a
						// coordinated repartition (HiveMind's controller,
						// Fig. 10) sends a neighbour to re-cover it; the
						// baselines lose the coverage.
						if repartitioned {
							if alive := aliveDevice(sys, rng); alive != nil {
								eng.Defer(sweep*0.5, func() { processSighting(alive, it) })
							}
						}
						return
					}
					processSighting(d, it)
					// If the pipeline drops the frame, the next pass tries
					// again.
					eng.Defer(10+rng.Float64()*5, func() {
						if !found[it] && !missionDone {
							try()
						}
					})
				}
				eng.DeferAt(at, try)
			}
		}
	} else {
		// Scenario B: people move; every sweep pass each device spots
		// each person currently in its region with DetectProb.
		pass := func() float64 { return math.Max(20, sys.Fleet[0].SweepTimeS()) }
		var round func()
		round = func() {
			if missionDone {
				return
			}
			// People re-shuffle across regions each pass.
			for p := 0; p < cfg.Items; p++ {
				if found[p] {
					continue
				}
				dev := rng.Intn(cfg.System.Devices)
				d := sys.Fleet[dev]
				if d.Failed() {
					continue
				}
				if rng.Float64() < cfg.DetectProb {
					p := p
					at := rng.Float64() * pass() * 0.8
					eng.Defer(at, func() {
						if !missionDone && !found[p] && !d.Failed() {
							processSighting(d, p)
						}
					})
				}
			}
			eng.Defer(pass(), round)
		}
		eng.DeferAt(0.5, round)
	}

	eng.RunUntil(cfg.MaxDurationS)
	res.Found = foundCount
	res.Completed = missionDone
	if missionDone {
		res.CompletionS = completion
	} else {
		res.CompletionS = extrapolate(cfg, foundCount, foundTimes)
	}
	sys.Fleet.Settle()
	res.BatteryMean = sys.Fleet.MeanBatteryConsumed()
	res.BatteryMax = sys.Fleet.MaxBatteryConsumed()
	res.BatteryDead = countDead(sys.Fleet)
	window := math.Min(cfg.MaxDurationS, math.Max(res.CompletionS, 1))
	bw := sys.Net.Wireless.Meter().RateSample(window)
	res.BWMeanMBps = bw.Mean() / 1e6
	res.BWp99MBps = bw.Percentile(99) / 1e6
	if ctl != nil {
		fo := controller.Failover(ctl.Monitor())
		res.Failover = &fo
	}
	return res
}

// runRoverMission drives the §5.5 rover missions: each rover advances
// through a sequence of decision points; at each it must complete a
// pipeline task (panel OCR / maze step) before moving on, so pipeline
// latency directly gates mission time.
func runRoverMission(kind Kind, cfg Config) Result {
	sys := platform.NewSystem(cfg.System)
	eng := sys.Eng
	rng := eng.Rand()
	res := Result{Kind: kind, System: cfg.System.Kind,
		TaskLatency: &stats.Sample{}, Breakdown: stats.NewBreakdown()}

	prof := frameBatchProfile(kind, cfg.System.DeviceCfg.FrameMB, cfg.System.DeviceCfg.FPS)
	legM := 8.0 // meters between decision points
	if kind == Maze {
		legM = 2.5
	}
	speed := cfg.System.DeviceCfg.SpeedMps

	finished := 0
	var lastFinish sim.Time
	for _, d := range sys.Fleet {
		d := d
		step := 0
		var advance func()
		advance = func() {
			if d.Failed() || eng.Now() >= cfg.MaxDurationS {
				return
			}
			if step >= cfg.Items {
				d.FinishMission()
				finished++
				if eng.Now() > lastFinish {
					lastFinish = eng.Now()
				}
				return
			}
			step++
			travel := legM / speed * (0.9 + 0.2*rng.Float64())
			eng.Defer(travel, func() {
				start := eng.Now()
				sys.SubmitTask(prof, d, platform.SubmitOpts{}, func(m platform.TaskMetrics) {
					if m.Dropped {
						// Re-read the panel / re-plan.
						eng.Defer(1, advance)
						return
					}
					res.TaskLatency.Add(eng.Now() - start)
					res.Breakdown.Record(map[stats.Stage]float64{
						stats.StageNetwork:    m.Network,
						stats.StageManagement: m.Mgmt,
						stats.StageDataIO:     m.DataIO,
						stats.StageExecution:  m.Exec,
					})
					advance()
				})
			})
		}
		eng.DeferAt(rng.Float64(), advance)
	}
	eng.RunUntil(cfg.MaxDurationS)
	res.Found = finished
	res.Completed = finished == len(sys.Fleet)
	if res.Completed {
		res.CompletionS = lastFinish
	} else {
		res.CompletionS = cfg.MaxDurationS
	}
	sys.Fleet.Settle()
	res.BatteryMean = sys.Fleet.MeanBatteryConsumed()
	res.BatteryMax = sys.Fleet.MaxBatteryConsumed()
	res.BatteryDead = countDead(sys.Fleet)
	bw := sys.Net.Wireless.Meter().RateSample(math.Min(res.CompletionS, cfg.MaxDurationS))
	res.BWMeanMBps = bw.Mean() / 1e6
	res.BWp99MBps = bw.Percentile(99) / 1e6
	return res
}

// distributeItems scatters items across device regions.
func distributeItems(items, devices int, rng interface{ Intn(int) int }) map[int][]int {
	out := make(map[int][]int)
	for i := 0; i < items; i++ {
		dev := rng.Intn(devices)
		out[dev] = append(out[dev], i)
	}
	return out
}

func aliveDevice(sys *platform.System, rng interface{ Intn(int) int }) *device.Device {
	n := len(sys.Fleet)
	for i := 0; i < n; i++ {
		d := sys.Fleet[rng.Intn(n)]
		if !d.Failed() {
			return d
		}
	}
	return nil
}

func countDead(f device.Fleet) int {
	n := 0
	for _, d := range f {
		if d.Failed() {
			n++
		}
	}
	return n
}

// extrapolate estimates completion time from the discovery rate when a
// mission hits the simulation cap (used for the saturated centralized
// configurations at large swarm scale).
func extrapolate(cfg Config, foundCount int, times []sim.Time) float64 {
	remaining := cfg.Items - foundCount
	if remaining <= 0 {
		return cfg.MaxDurationS
	}
	if len(times) < 2 {
		// No measurable progress: report a pessimistic multiple.
		return cfg.MaxDurationS * 10
	}
	rate := float64(len(times)-1) / (times[len(times)-1] - times[0] + 1e-9)
	if rate <= 0 {
		return cfg.MaxDurationS * 10
	}
	return cfg.MaxDurationS + float64(remaining)/rate
}
