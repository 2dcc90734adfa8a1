package platform

import (
	"math"
	"testing"

	"hivemind/internal/apps"
	"hivemind/internal/dsl"
	"hivemind/internal/stats"
	"hivemind/internal/synth"
)

func mustProfile(t *testing.T, id apps.ID) apps.Profile {
	t.Helper()
	p, ok := apps.ByID(id)
	if !ok {
		t.Fatalf("missing profile %s", id)
	}
	return p
}

// freeCores counts the cores a fresh system leaves to functions.
func freeCores(s *System) int {
	n := 0
	for _, srv := range s.Cluster.Servers() {
		n += srv.FreeCores()
	}
	return n
}

func TestPresetKinds(t *testing.T) {
	for _, k := range []SystemKind{CentralizedIaaS, CentralizedFaaS, DistributedEdge, HiveMind} {
		o := Preset(k, 16, 1)
		s := NewSystem(o)
		if len(s.Fleet) != 16 {
			t.Fatalf("%s: fleet = %d", k, len(s.Fleet))
		}
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if SystemKind(99).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

func TestHiveMindPresetEnablesStack(t *testing.T) {
	o := Preset(HiveMind, 16, 1)
	if !o.NetAccel || !o.RemoteMemAccel || !o.HybridPlacement {
		t.Fatalf("hivemind preset incomplete: %+v", o)
	}
	s := NewSystem(o)
	// Net accel frees the network-stack cores.
	if freeCores(s) != 12*40 {
		t.Fatalf("cores = %d, want all 480 with offload", freeCores(s))
	}
	// Baseline FaaS loses 4 cores per server to the software stack.
	base := NewSystem(Preset(CentralizedFaaS, 16, 1))
	if freeCores(base) != 12*36 {
		t.Fatalf("baseline cores = %d", freeCores(base))
	}
}

func TestPlacementDecisions(t *testing.T) {
	hm := NewSystem(Preset(HiveMind, 16, 1))
	cen := NewSystem(Preset(CentralizedFaaS, 16, 1))
	dist := NewSystem(Preset(DistributedEdge, 16, 1))

	face := mustProfile(t, apps.S1FaceRecognition)
	obstacle := mustProfile(t, apps.S4ObstacleAvoid)
	weather := mustProfile(t, apps.S7Weather)
	droneRec := mustProfile(t, apps.S3DroneDetection)

	if got := cen.PlaceFor(face); got != TierCloud {
		t.Fatalf("centralized face = %s", got)
	}
	if got := dist.PlaceFor(face); got != TierEdge {
		t.Fatalf("distributed face = %s", got)
	}
	if got := hm.PlaceFor(face); got != TierHybrid {
		t.Fatalf("hivemind face = %s", got)
	}
	// §2.1: obstacle avoidance always on-board under HiveMind.
	if got := hm.PlaceFor(obstacle); got != TierEdge {
		t.Fatalf("hivemind obstacle = %s", got)
	}
	// Light tasks stay local under HiveMind (§2.3 exceptions S3, S7).
	if got := hm.PlaceFor(weather); got != TierEdge {
		t.Fatalf("hivemind weather = %s", got)
	}
	if got := hm.PlaceFor(droneRec); got != TierEdge {
		t.Fatalf("hivemind drone detection = %s", got)
	}
	if TierCloud.String() != "cloud" || TierEdge.String() != "edge" || TierHybrid.String() != "hybrid" {
		t.Fatal("placement strings")
	}
}

func TestSubmitTaskCloudPath(t *testing.T) {
	s := NewSystem(Preset(CentralizedFaaS, 4, 1))
	face := mustProfile(t, apps.S1FaceRecognition)
	var m TaskMetrics
	got := false
	s.SubmitTask(face, s.Fleet[0], SubmitOpts{}, func(tm TaskMetrics) { m = tm; got = true })
	s.Eng.RunUntil(30)
	if !got {
		t.Fatal("task did not complete")
	}
	if m.Network <= 0 || m.Mgmt <= 0 || m.Exec <= 0 || m.DataIO <= 0 {
		t.Fatalf("missing stages: %+v", m)
	}
	if s.PlaceFor(face) != TierCloud || m.Dropped {
		t.Fatalf("placement %s, metrics: %+v", s.PlaceFor(face), m)
	}
	if m.TotalS() < m.Network+m.Exec {
		t.Fatalf("total %g below component sum", m.TotalS())
	}
}

func TestSubmitTaskEdgePath(t *testing.T) {
	s := NewSystem(Preset(DistributedEdge, 4, 1))
	weather := mustProfile(t, apps.S7Weather)
	var m TaskMetrics
	s.SubmitTask(weather, s.Fleet[0], SubmitOpts{}, func(tm TaskMetrics) { m = tm })
	s.Eng.RunUntil(30)
	if s.PlaceFor(weather) != TierEdge || m.Mgmt != 0 || m.DataIO != 0 {
		t.Fatalf("edge task metrics: %+v", m)
	}
	if m.Exec < weather.EdgeExecS/2 {
		t.Fatalf("edge exec = %g", m.Exec)
	}
	// Only the small output crosses the network.
	if m.Network <= 0 || m.Network > 0.1 {
		t.Fatalf("edge network = %g", m.Network)
	}
}

func TestSubmitTaskHybridPath(t *testing.T) {
	s := NewSystem(Preset(HiveMind, 4, 1))
	face := mustProfile(t, apps.S1FaceRecognition)
	var m TaskMetrics
	s.SubmitTask(face, s.Fleet[0], SubmitOpts{}, func(tm TaskMetrics) { m = tm })
	s.Eng.RunUntil(30)
	if p := s.PlaceFor(face); p != TierHybrid {
		t.Fatalf("placement = %s", p)
	}
	// Hybrid must ship less than the full payload: compare with the
	// centralized network time for the same task under an idle network.
	cen := NewSystem(Preset(CentralizedFaaS, 4, 1))
	var cm TaskMetrics
	cen.SubmitTask(face, cen.Fleet[0], SubmitOpts{}, func(tm TaskMetrics) { cm = tm })
	cen.Eng.RunUntil(30)
	if m.Network >= cm.Network {
		t.Fatalf("hybrid network %g not below centralized %g", m.Network, cm.Network)
	}
}

func TestForcePlacementOverride(t *testing.T) {
	s := NewSystem(Preset(CentralizedFaaS, 4, 1))
	face := mustProfile(t, apps.S1FaceRecognition)
	edge := TierEdge
	var m TaskMetrics
	s.SubmitTask(face, s.Fleet[0], SubmitOpts{ForcePlacement: &edge}, func(tm TaskMetrics) { m = tm })
	s.Eng.RunUntil(60)
	// Only the cloud path pays management and data I/O.
	if m.Exec <= 0 || m.Mgmt != 0 || m.DataIO != 0 {
		t.Fatalf("override ignored: %+v", m)
	}
}

func TestRunJobProducesAggregates(t *testing.T) {
	s := NewSystem(Preset(CentralizedFaaS, 8, 3))
	res := s.RunJob(mustProfile(t, apps.S7Weather), 30)
	if res.Completed == 0 || res.Latency.N() != res.Completed {
		t.Fatalf("completed=%d latencies=%d", res.Completed, res.Latency.N())
	}
	if res.Submitted < res.Completed {
		t.Fatalf("submitted %d < completed %d", res.Submitted, res.Completed)
	}
	if res.BatteryMean <= 0 || res.BatteryMax < res.BatteryMean {
		t.Fatalf("battery mean=%g max=%g", res.BatteryMean, res.BatteryMax)
	}
	if res.BWMeanMBps <= 0 {
		t.Fatalf("bandwidth = %g", res.BWMeanMBps)
	}
	if res.Breakdown.N() != res.Completed {
		t.Fatalf("breakdown n = %d", res.Breakdown.N())
	}
}

func TestDistributedOverloadDropsHeavyTasks(t *testing.T) {
	s := NewSystem(Preset(DistributedEdge, 8, 3))
	res := s.RunJob(mustProfile(t, apps.S1FaceRecognition), 60)
	if res.Submitted == res.Completed {
		t.Fatal("overloaded edge devices should drop tasks")
	}
	if res.Completed == 0 {
		t.Fatal("some tasks should still complete")
	}
}

func TestCentralizedVsDistributedLatencyShape(t *testing.T) {
	// Fig. 4: centralized beats distributed for heavy jobs; obstacle
	// avoidance is better at the edge.
	face := mustProfile(t, apps.S1FaceRecognition)
	cen := NewSystem(Preset(CentralizedFaaS, 16, 5)).RunJob(face, 60)
	dist := NewSystem(Preset(DistributedEdge, 16, 5)).RunJob(face, 60)
	if cen.Latency.Median() >= dist.Latency.Median() {
		t.Fatalf("centralized face median %g not below distributed %g",
			cen.Latency.Median(), dist.Latency.Median())
	}
	obstacle := mustProfile(t, apps.S4ObstacleAvoid)
	cenO := NewSystem(Preset(CentralizedFaaS, 16, 5)).RunJob(obstacle, 60)
	distO := NewSystem(Preset(DistributedEdge, 16, 5)).RunJob(obstacle, 60)
	if distO.Latency.Median() >= cenO.Latency.Median() {
		t.Fatalf("edge obstacle median %g not below centralized %g",
			distO.Latency.Median(), cenO.Latency.Median())
	}
}

func TestHiveMindBeatsCentralizedOnHeavyJob(t *testing.T) {
	face := mustProfile(t, apps.S1FaceRecognition)
	hm := NewSystem(Preset(HiveMind, 16, 7)).RunJob(face, 60)
	cen := NewSystem(Preset(CentralizedFaaS, 16, 7)).RunJob(face, 60)
	if hm.Latency.Median() >= cen.Latency.Median() {
		t.Fatalf("hivemind median %g not below centralized %g",
			hm.Latency.Median(), cen.Latency.Median())
	}
	// Fig. 14b: HiveMind uses less wireless bandwidth than centralized.
	if hm.BWMeanMBps >= cen.BWMeanMBps {
		t.Fatalf("hivemind bandwidth %g not below centralized %g",
			hm.BWMeanMBps, cen.BWMeanMBps)
	}
	// Fig. 14a: and less battery.
	if hm.BatteryMean >= cen.BatteryMean {
		t.Fatalf("hivemind battery %g not below centralized %g",
			hm.BatteryMean, cen.BatteryMean)
	}
}

func TestDistributedDrainsBatteryFastest(t *testing.T) {
	face := mustProfile(t, apps.S1FaceRecognition)
	dist := NewSystem(Preset(DistributedEdge, 16, 9)).RunJob(face, 60)
	cen := NewSystem(Preset(CentralizedFaaS, 16, 9)).RunJob(face, 60)
	if dist.BatteryMean <= cen.BatteryMean {
		t.Fatalf("distributed battery %g not above centralized %g",
			dist.BatteryMean, cen.BatteryMean)
	}
}

func TestReservedJobBaseline(t *testing.T) {
	s := NewSystem(Preset(CentralizedIaaS, 8, 3))
	res := s.ReservedJob(mustProfile(t, apps.S1FaceRecognition), 40, 0)
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	if res.Latency.N() == 0 || res.BWMeanMBps <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// Serverless (with intra-task parallelism) should beat the fixed
	// pool (Fig. 5a shape).
	sf := NewSystem(Preset(CentralizedFaaS, 8, 3))
	fr := sf.RunJob(mustProfile(t, apps.S1FaceRecognition), 40)
	if fr.Latency.Median() >= res.Latency.Median() {
		t.Fatalf("serverless median %g not below reserved %g",
			fr.Latency.Median(), res.Latency.Median())
	}
}

func TestWirelessScaleOption(t *testing.T) {
	// 64 concurrent 1 MB uploads share the medium below the per-device
	// cap, so they drain in bytes/capacity: 4× the capacity, ¼ the time.
	drain := func(scale float64) float64 {
		o := Preset(HiveMind, 16, 1)
		o.WirelessScale = scale
		s := NewSystem(o)
		var last float64
		done := s.Eng.Handle(func(_, _ int32) { last = s.Eng.Now() })
		for i := 0; i < 64; i++ {
			s.Net.Wireless.Transfer(1e6, done, 0, 0)
		}
		s.Eng.RunUntil(10)
		return last
	}
	base, scaled := drain(1), drain(4)
	if base == 0 || math.Abs(base/scaled-4) > 1e-6 {
		t.Fatalf("drain time %gs unscaled vs %gs at 4× capacity, want a 4× ratio", base, scaled)
	}
}

func TestDeterministicRunJob(t *testing.T) {
	run := func() float64 {
		s := NewSystem(Preset(HiveMind, 8, 42))
		return s.RunJob(mustProfile(t, apps.S3DroneDetection), 30).Latency.Mean()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %g vs %g", a, b)
	}
}

func TestZeroDevicesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewSystem(Options{Devices: 0})
}

func TestMultiTenantJobs(t *testing.T) {
	// §2.1: "the platform supports multi-tenancy". Run a heavy and a
	// light job concurrently; both must complete and contend for shared
	// resources.
	s := NewSystem(Preset(HiveMind, 8, 23))
	face := mustProfile(t, apps.S1FaceRecognition)
	weather := mustProfile(t, apps.S7Weather)
	results := runJobs(s, []apps.Profile{face, weather}, 40)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Completed == 0 {
			t.Fatalf("job %d had no completions", i)
		}
	}
	if results[0].App != apps.S1FaceRecognition || results[1].App != apps.S7Weather {
		t.Fatal("result order broken")
	}
	// Contention check: weather under multi-tenancy should not beat its
	// isolated run by much, and must be slower or equal on average.
	iso := NewSystem(Preset(HiveMind, 8, 23)).RunJob(weather, 40)
	if results[1].Latency.Median() < iso.Latency.Median()*0.8 {
		t.Fatalf("shared run faster than isolated: %.3f vs %.3f",
			results[1].Latency.Median(), iso.Latency.Median())
	}
}

func TestSynthesizedPlacementMatchesRules(t *testing.T) {
	// The programmatic synthesis path (§4.2 explorer over the canonical
	// collect→process graph) must agree with the encoded placement rules
	// HiveMind systems use, across the whole benchmark suite.
	hm := NewSystem(Preset(HiveMind, 16, 1))
	for _, p := range apps.All() {
		want := hm.PlaceFor(p)
		got, err := synthesizePlacement(p, 16)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		if got != want {
			t.Errorf("%s: synthesis says %s, rules say %s", p.ID, got, want)
		}
	}
}

// jobRun is one tenant's share of a runJobs run.
type jobRun struct {
	App       apps.ID
	Completed int
	Latency   *stats.Sample
}

// runJobs drives several applications concurrently on one system (the
// platform "supports multi-tenancy", §2.1), each from every device at
// its own rate as RunJob does, and returns per-job results in input
// order. Shared resources — wireless, cores, warm pools — are contended
// across the jobs.
func runJobs(s *System, profiles []apps.Profile, durationS float64) []jobRun {
	results := make([]jobRun, len(profiles))
	rng := s.Eng.Rand()
	for ji, p := range profiles {
		res := &results[ji]
		res.App, res.Latency = p.ID, &stats.Sample{}
		period := 1.0 / p.TaskRatePerDevice
		for _, d := range s.Fleet {
			d := d
			var submit func()
			submit = func() {
				if s.Eng.Now() >= durationS {
					return
				}
				s.SubmitTask(p, d, SubmitOpts{}, func(m TaskMetrics) {
					if !m.Dropped {
						res.Completed++
						res.Latency.Add(m.TotalS())
					}
				})
				s.Eng.At(s.Eng.Now()+period*(0.8+0.4*rng.Float64()), submit)
			}
			s.Eng.At(rng.Float64()*period, submit)
		}
	}
	s.Eng.RunUntil(durationS + 60)
	s.Fleet.StopAll()
	s.Eng.Run()
	return results
}

// synthesizePlacement runs the placement explorer (§4.2) over a
// single-tier application expressed as the canonical two-task graph
// (on-device sensor collection → processing tier) and returns where
// the processing tier should run: TierEdge when the explorer keeps the
// processing on-device, TierHybrid when it offloads (HiveMind always
// pairs offload with on-board preprocessing).
func synthesizePlacement(p apps.Profile, devices int) (TierPlacement, error) {
	b := dsl.NewGraph(string(p.ID)).
		Task("collect").
		Task("process", dsl.WithParents("collect"))
	if p.PinEdge {
		b.Place("process", dsl.PlaceEdge, true)
	}
	g, err := b.Build()
	if err != nil {
		return TierCloud, err
	}
	costs := map[string]synth.TaskCost{
		"collect": {
			CloudExecS: 0.001, EdgeExecS: 0.001, Parallelism: 1,
			OutputMB: p.InputMB, RatePerDev: p.TaskRatePerDevice, Sensor: true,
		},
		"process": {
			CloudExecS: p.CloudExecS, EdgeExecS: p.EdgeExecS,
			Parallelism: p.Parallelism, InputMB: p.InputMB,
			OutputMB: p.OutputMB, RatePerDev: p.TaskRatePerDevice,
		},
	}
	cands, err := synth.Explore(g, costs, synth.DefaultEnv(devices))
	if err != nil {
		return TierCloud, err
	}
	// Choose the best candidate under the swarm-scalability preference:
	// when a candidate stays within 1.4x of the best latency, prefer the
	// one that puts less traffic on the shared wireless medium — the
	// scarce resource that caps swarm size (§2.2, §5.6). This is why
	// light tasks like drone detection and weather analytics stay
	// on-board even though offloading them would be battery-neutral.
	best := cands[0]
	for _, c := range cands[1:] {
		if !c.Metrics.Feasible {
			continue
		}
		if c.Metrics.LatencyS <= best.Metrics.LatencyS*1.4 &&
			c.Metrics.NetworkMBps < best.Metrics.NetworkMBps {
			best = c
		}
	}
	if best.Assignment["process"] == synth.LocEdge {
		return TierEdge, nil
	}
	return TierHybrid, nil
}
