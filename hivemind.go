// Package hivemind is the public façade of the HiveMind reproduction —
// a hardware-software system stack for serverless edge swarms
// (Patterson et al., ISCA 2022), implemented in pure Go.
//
// The package ties together the full stack:
//
//   - express an application's task graph in the HiveMind DSL (textual
//     or builder form),
//   - explore task placements between cloud and edge with the program
//     synthesizer and generate the cross-tier API bindings,
//   - assemble one of the coordination platforms (Centralized IaaS,
//     Centralized FaaS, Distributed Edge, or full HiveMind with FPGA
//     RPC/remote-memory acceleration) over a simulated swarm, and
//   - run single-tier jobs, end-to-end missions, and every evaluation
//     experiment from the paper.
//
// Quick start:
//
//	sw := hivemind.NewSwarm(hivemind.SwarmSpec{Devices: 16, System: hivemind.SystemHiveMind})
//	res := sw.RunJob(hivemind.JobFaceRecognition, 120)
//	fmt.Println(res.Latency.Summarize())
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory and per-figure experiment index.
package hivemind

import (
	"fmt"

	"hivemind/internal/apps"
	"hivemind/internal/dsl"
	"hivemind/internal/experiments"
	"hivemind/internal/learn"
	"hivemind/internal/platform"
	"hivemind/internal/scenario"
	"hivemind/internal/synth"
)

// System selects a coordination platform.
type System = platform.SystemKind

// The four systems the paper compares.
const (
	SystemCentralizedIaaS = platform.CentralizedIaaS
	SystemCentralizedFaaS = platform.CentralizedFaaS
	SystemDistributedEdge = platform.DistributedEdge
	SystemHiveMind        = platform.HiveMind
)

// Job identifies a benchmark application (S1–S10).
type Job = apps.ID

// The benchmark suite of §2.1.
const (
	JobFaceRecognition = apps.S1FaceRecognition
	JobTreeRecognition = apps.S2TreeRecognition
	JobDroneDetection  = apps.S3DroneDetection
	JobObstacleAvoid   = apps.S4ObstacleAvoid
	JobDeduplication   = apps.S5Deduplication
	JobMaze            = apps.S6Maze
	JobWeather         = apps.S7Weather
	JobSoilAnalytics   = apps.S8SoilAnalytics
	JobTextRecognition = apps.S9TextRecognition
	JobSLAM            = apps.S10SLAM
)

// Jobs returns the benchmark suite profiles.
func Jobs() []apps.Profile { return apps.All() }

// Mission identifies an end-to-end multi-phase scenario.
type Mission = scenario.Kind

// The paper's missions.
const (
	MissionStationaryItems = scenario.ScenarioA
	MissionMovingPeople    = scenario.ScenarioB
	MissionTreasureHunt    = scenario.TreasureHunt
	MissionMaze            = scenario.Maze
)

// SwarmSpec configures a swarm deployment.
type SwarmSpec struct {
	// Devices is the swarm size (16 drones / 14 rovers in the paper).
	Devices int
	// System selects the coordination platform.
	System System
	// Rovers switches the device class from drones to robotic cars.
	Rovers bool
	// Seed makes runs reproducible (default 1).
	Seed int64
}

// Swarm is a wired deployment: devices, network, cluster and backend.
type Swarm struct {
	opts platform.Options
	sys  *platform.System
}

// NewSwarm assembles a swarm per the spec.
func NewSwarm(spec SwarmSpec) *Swarm {
	if spec.Devices <= 0 {
		spec.Devices = 16
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	opts := platform.Preset(spec.System, spec.Devices, spec.Seed)
	if spec.Rovers {
		cfg := scenario.DefaultConfig(scenario.TreasureHunt, opts)
		opts = cfg.System
	}
	return &Swarm{opts: opts, sys: platform.NewSystem(opts)}
}

// Options exposes the underlying platform configuration.
func (s *Swarm) Options() platform.Options { return s.opts }

// System exposes the wired platform for advanced use.
func (s *Swarm) System() *platform.System { return s.sys }

// RunJob drives one benchmark application at its default load for
// durationS seconds and returns aggregate metrics. A swarm is consumed
// by one run; build a fresh Swarm per experiment.
func (s *Swarm) RunJob(job Job, durationS float64) (platform.JobResult, error) {
	p, ok := apps.ByID(job)
	if !ok {
		return platform.JobResult{}, fmt.Errorf("hivemind: unknown job %q", job)
	}
	return s.sys.RunJob(p, durationS), nil
}

// RunMission executes an end-to-end scenario on a fresh system with
// this swarm's configuration.
func (s *Swarm) RunMission(m Mission) scenario.Result {
	cfg := scenario.DefaultConfig(m, s.opts)
	return scenario.Run(m, cfg)
}

// ParseDSL parses and validates a HiveMind DSL program (Listings 1–3).
func ParseDSL(src string) (*dsl.TaskGraph, error) {
	return dsl.ParseAndAnalyze(src)
}

// NewGraph starts a fluent task-graph builder (the Go-native DSL).
func NewGraph(name string) *dsl.Builder { return dsl.NewGraph(name) }

// TaskCost is the per-task profile the placement explorer prices
// candidates with.
type TaskCost = synth.TaskCost

// ExplorePlacements runs the program synthesizer over a task graph:
// every meaningful edge/cloud assignment is enumerated, priced, and
// ranked (§4.2, Fig. 8).
func ExplorePlacements(g *dsl.TaskGraph, costs map[string]synth.TaskCost, devices int) ([]synth.Candidate, error) {
	return synth.Explore(g, costs, synth.DefaultEnv(devices))
}

// RetrainingModes for continuous learning (§4.6, Fig. 15).
const (
	LearnNone  = learn.ModeNone
	LearnSelf  = learn.ModeSelf
	LearnSwarm = learn.ModeSwarm
)

// RunLearningTrial runs a Fig. 15 detection mission under a retraining
// mode, returning final accuracy and the per-round trajectory.
func RunLearningTrial(mode learn.Mode, devices int, seed int64) (learn.Accuracy, []learn.Accuracy) {
	return learn.RunTrial(mode, learn.DefaultTrial(devices, seed))
}

// NewAdapter starts runtime placement adaptation for a job with a p95
// latency goal (§4.2: HiveMind changes its task mapping at runtime when
// user goals are not met).
func (s *Swarm) NewAdapter(job Job, goalP95S float64) (*platform.Adapter, error) {
	p, ok := apps.ByID(job)
	if !ok {
		return nil, fmt.Errorf("hivemind: unknown job %q", job)
	}
	return platform.NewAdapter(s.sys, p, goalP95S), nil
}

// Experiments returns every paper figure/table driver (see DESIGN.md's
// per-experiment index).
func Experiments() []experiments.Experiment { return experiments.All() }

// RunExperiment executes one figure by id ("fig01" … "fig18",
// "ubench-rpc", "ubench-monitor"). Quick mode shrinks sweeps for fast
// runs.
func RunExperiment(id string, seed int64, quick bool) (*experiments.Report, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("hivemind: unknown experiment %q", id)
	}
	return e.Run(experiments.RunConfig{Seed: seed, Quick: quick}), nil
}
