package main

import (
	"fmt"
	"reflect"
	"time"

	"hivemind/internal/experiments"
	"hivemind/internal/scenario"
)

// swarmConfig is the sim-swarm mission: 10⁴ devices over 78 geo-cells.
// One simulated second keeps a mission near 0.15 s of host time, so a
// 10 s window holds enough missions for a p90.
func swarmConfig(seed int64, shards int) scenario.SwarmConfig {
	return scenario.SwarmConfig{Devices: 10000, DurationS: 1, FailProb: 0.001, Shards: shards, Seed: seed}
}

// missionSeed derives the seed of the i-th mission (or sweep) of a run.
func missionSeed(seed int64, i int) int64 { return int64(splitmix64(uint64(seed)+uint64(i)) >> 1) }

// swarmEnv is the sim-swarm environment: it holds no state, the
// simulator has nothing to boot. Set-up is the parity check, which
// doubles as the warm-up.
type swarmEnv struct {
	c      *config
	shards int
	next   int // missions driven so far, across slices
	last   scenario.SwarmResult
	wall   time.Duration // host time inside RunSwarm during the window
	steps  uint64
}

func setupSwarm(c *config, _ *tracer) (env, error) {
	e := &swarmEnv{c: c, shards: c.nproc}
	// The first seed's result must be identical at Shards 1 and nproc.
	seed := missionSeed(c.seed, 0)
	one, err := scenario.RunSwarm(swarmConfig(seed, 1))
	if err != nil {
		return nil, err
	}
	many, err := scenario.RunSwarm(swarmConfig(seed, e.shards))
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(one, many) {
		return nil, fmt.Errorf("sim-swarm: result at Shards=1 differs from Shards=%d:\n%v\n%v", e.shards, one, many)
	}
	return e, nil
}

func (e *swarmEnv) drive(window time.Duration) *recorder {
	rec := &recorder{}
	deadline := time.Now().Add(window)
	for {
		start := time.Now()
		if !start.Before(deadline) {
			return rec
		}
		e.next++
		i := e.next
		cfg := swarmConfig(missionSeed(e.c.seed, i), e.shards)
		res, err := scenario.RunSwarm(cfg)
		d := time.Since(start)
		switch {
		case err != nil:
			rec.fail(err)
		case res.Devices != cfg.Devices || res.Steps == 0:
			rec.fail(fmt.Errorf("mission %d: implausible result %v", i, res))
		default:
			rec.ok(d)
			e.last, e.wall, e.steps = res, e.wall+d, e.steps+res.Steps
		}
	}
}

func (e *swarmEnv) counters(m metricSet) {
	if e.wall > 0 {
		m.set("sim.swarm_events_per_s", float64(e.steps)/e.wall.Seconds())
	}
	m.set("sim.swarm_steps", float64(e.last.Steps))
	m.set("sim.shard_windows", float64(e.last.Windows))
	m.set("sim.shard_cross_msgs", float64(e.last.CrossMessages))
	m.set("netsim.radio_broadcasts", float64(e.last.Radio.Broadcasts))
	m.set("netsim.radio_deliveries", float64(e.last.Radio.Deliveries))
	m.set("netsim.radio_cross_events", float64(e.last.Radio.CrossEvents))
}

func (e *swarmEnv) close() error { return nil }

// sweepEnv is the sim-sweep environment.
type sweepEnv struct {
	c    *config
	next int // sweeps driven so far, across slices
}

func sweepConfig(seed int64, parallelism int) experiments.RunConfig {
	return experiments.RunConfig{Seed: seed, Quick: true, Parallelism: parallelism}
}

// reportStrings renders a sweep's reports, in figure order.
func reportStrings(rs []experiments.RunResult) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Report.String()
	}
	return out
}

// sweepReference is the first seed's sweep at Parallelism 1, run once
// per process: every set-up repetition compares against it.
var sweepReference struct {
	seed    int64
	reports []string
}

func setupSweep(c *config, _ *tracer) (env, error) {
	seed := missionSeed(c.seed, 0)
	if sweepReference.reports == nil || sweepReference.seed != seed {
		sweepReference.seed = seed
		sweepReference.reports = reportStrings(experiments.RunAll(sweepConfig(seed, 1)))
	}
	// The timed part of set-up: the same sweep at Parallelism nproc,
	// whose report strings must be identical.
	got := reportStrings(experiments.RunAll(sweepConfig(seed, c.nproc)))
	if !reflect.DeepEqual(got, sweepReference.reports) {
		for i := range got {
			if i >= len(sweepReference.reports) || got[i] != sweepReference.reports[i] {
				return nil, fmt.Errorf("sim-sweep: report %d differs between Parallelism 1 and %d", i, c.nproc)
			}
		}
		return nil, fmt.Errorf("sim-sweep: %d reports at Parallelism %d, %d at 1", len(got), c.nproc, len(sweepReference.reports))
	}
	return &sweepEnv{c: c}, nil
}

func (e *sweepEnv) drive(window time.Duration) *recorder {
	rec := &recorder{}
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		e.next++
		i := e.next
		for _, r := range experiments.RunAll(sweepConfig(missionSeed(e.c.seed, i), e.c.nproc)) {
			if r.Report == nil || r.Report.ID != r.Experiment.ID || r.Report.String() == "" {
				rec.fail(fmt.Errorf("sweep %d: experiment %s produced no report", i, r.Experiment.ID))
				continue
			}
			rec.ok(r.Elapsed)
		}
	}
	return rec
}

func (e *sweepEnv) counters(metricSet) {}

func (e *sweepEnv) close() error { return nil }
