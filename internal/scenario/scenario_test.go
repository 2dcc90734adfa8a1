package scenario

import (
	"testing"

	"hivemind/internal/platform"
)

func run(t *testing.T, kind Kind, sysKind platform.SystemKind, devices int, seed int64) Result {
	t.Helper()
	cfg := DefaultConfig(kind, platform.Preset(sysKind, devices, seed))
	return Run(kind, cfg)
}

func TestScenarioACompletesOnHiveMind(t *testing.T) {
	r := run(t, ScenarioA, platform.HiveMind, 16, 1)
	if !r.Completed {
		t.Fatalf("hivemind scenario A incomplete: %s", r)
	}
	if r.Found != 15 {
		t.Fatalf("found %d items", r.Found)
	}
	if r.CompletionS <= 0 || r.CompletionS > 400 {
		t.Fatalf("completion = %g", r.CompletionS)
	}
	if r.BatteryMean <= 0 || r.BatteryMean > 1 {
		t.Fatalf("battery = %g", r.BatteryMean)
	}
	if r.TaskLatency.N() == 0 {
		t.Fatal("no pipeline latencies recorded")
	}
	if r.String() == "" {
		t.Fatal("empty result string")
	}
}

func TestScenarioAFig1Shape(t *testing.T) {
	// Fig. 1 (16 real drones): HiveMind completes fastest and uses the
	// least battery; distributed is slowest/most battery-hungry among
	// completions; centralized FaaS saturates the wireless network.
	hm := run(t, ScenarioA, platform.HiveMind, 16, 3)
	faas := run(t, ScenarioA, platform.CentralizedFaaS, 16, 3)
	dist := run(t, ScenarioA, platform.DistributedEdge, 16, 3)

	if hm.CompletionS >= faas.CompletionS {
		t.Fatalf("hivemind %.1fs not faster than centralized %.1fs", hm.CompletionS, faas.CompletionS)
	}
	if hm.CompletionS >= dist.CompletionS {
		t.Fatalf("hivemind %.1fs not faster than distributed %.1fs", hm.CompletionS, dist.CompletionS)
	}
	if hm.BatteryMean >= faas.BatteryMean || hm.BatteryMean >= dist.BatteryMean {
		t.Fatalf("hivemind battery %.3f not lowest (faas %.3f, dist %.3f)",
			hm.BatteryMean, faas.BatteryMean, dist.BatteryMean)
	}
	// Centralized ships every frame: 16 MB/s × 16 devices > 216 MB/s
	// wireless: bandwidth near saturation, far above HiveMind's.
	if faas.BWMeanMBps <= hm.BWMeanMBps {
		t.Fatalf("centralized bw %.1f not above hivemind %.1f", faas.BWMeanMBps, hm.BWMeanMBps)
	}
	if dist.BWMeanMBps >= hm.BWMeanMBps {
		t.Fatalf("distributed bw %.1f not below hivemind %.1f", dist.BWMeanMBps, hm.BWMeanMBps)
	}
}

func TestScenarioBHeavierThanA(t *testing.T) {
	a := run(t, ScenarioA, platform.HiveMind, 16, 5)
	b := run(t, ScenarioB, platform.HiveMind, 16, 5)
	if b.CompletionS <= a.CompletionS {
		t.Fatalf("scenario B (%.1fs) should outlast A (%.1fs)", b.CompletionS, a.CompletionS)
	}
	if b.TaskLatency.Median() <= a.TaskLatency.Median() {
		t.Fatalf("B pipeline median %.3f should exceed A %.3f (extra dedup tier)",
			b.TaskLatency.Median(), a.TaskLatency.Median())
	}
	// The dedup tier contributes data-sharing latency.
	if b.Breakdown.Stage("dataio").Mean() <= 0 {
		t.Fatal("no data-IO recorded for scenario B")
	}
}

func TestScenarioBDistributedStruggles(t *testing.T) {
	// §2.3: on-board execution leaves Scenario B incomplete or far
	// slower; HiveMind finishes comfortably.
	hm := run(t, ScenarioB, platform.HiveMind, 16, 7)
	dist := run(t, ScenarioB, platform.DistributedEdge, 16, 7)
	if !hm.Completed {
		t.Fatalf("hivemind scenario B incomplete: %s", hm)
	}
	if dist.Completed && dist.CompletionS < hm.CompletionS*1.5 {
		t.Fatalf("distributed B too comfortable: %s vs %s", dist, hm)
	}
}

func TestExtrapolationForCappedMissions(t *testing.T) {
	cfg := DefaultConfig(ScenarioA, platform.Preset(CentralizedKindForTest(), 16, 11))
	cfg.MaxDurationS = 30 // far too short to finish
	r := Run(ScenarioA, cfg)
	if r.Completed {
		t.Skip("mission unexpectedly completed within 30s")
	}
	if r.CompletionS <= cfg.MaxDurationS {
		t.Fatalf("extrapolated completion %.1f not beyond cap", r.CompletionS)
	}
}

// CentralizedKindForTest avoids a literal import cycle in test helper
// signatures.
func CentralizedKindForTest() platform.SystemKind { return platform.CentralizedFaaS }

func TestRoverTreasureHunt(t *testing.T) {
	hm := run(t, TreasureHunt, platform.HiveMind, 14, 9)
	if !hm.Completed {
		t.Fatalf("treasure hunt incomplete: %s", hm)
	}
	if hm.TaskLatency.N() < 14*6 {
		t.Fatalf("pipeline tasks = %d, want >= 84", hm.TaskLatency.N())
	}
	// Rovers are less power-constrained (§5.5): battery use stays modest.
	if hm.BatteryMean > 0.5 {
		t.Fatalf("rover battery %.3f suspiciously high", hm.BatteryMean)
	}
}

func TestRoverFig16Shape(t *testing.T) {
	// Fig. 16: HiveMind beats both baselines on latency for both rover
	// scenarios; distributed is the worst performer.
	for _, kind := range []Kind{TreasureHunt, Maze} {
		hm := run(t, kind, platform.HiveMind, 14, 13)
		cen := run(t, kind, platform.CentralizedFaaS, 14, 13)
		dist := run(t, kind, platform.DistributedEdge, 14, 13)
		if hm.TaskLatency.Median() >= cen.TaskLatency.Median() {
			t.Fatalf("%s: hivemind median %.3f not below centralized %.3f",
				kind, hm.TaskLatency.Median(), cen.TaskLatency.Median())
		}
		if hm.TaskLatency.Median() >= dist.TaskLatency.Median() {
			t.Fatalf("%s: hivemind median %.3f not below distributed %.3f",
				kind, hm.TaskLatency.Median(), dist.TaskLatency.Median())
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{ScenarioA, ScenarioB, TreasureHunt, Maze} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	a := run(t, ScenarioA, platform.HiveMind, 8, 21)
	b := run(t, ScenarioA, platform.HiveMind, 8, 21)
	if a.CompletionS != b.CompletionS || a.Found != b.Found {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestDefaultConfigsPerKind(t *testing.T) {
	a := DefaultConfig(ScenarioA, platform.Preset(platform.HiveMind, 16, 1))
	if a.Items != 15 {
		t.Fatalf("scenario A items = %d", a.Items)
	}
	b := DefaultConfig(ScenarioB, platform.Preset(platform.HiveMind, 16, 1))
	if b.Items != 25 {
		t.Fatalf("scenario B items = %d", b.Items)
	}
	th := DefaultConfig(TreasureHunt, platform.Preset(platform.HiveMind, 14, 1))
	if th.System.DeviceCfg.Kind.String() != "rover" {
		t.Fatal("treasure hunt should use rovers")
	}
}

// runFailing runs Scenario A with device id failing at simulated second
// atS.
func runFailing(cfg Config, id int, atS float64) Result {
	sys := platform.NewSystem(cfg.System)
	sys.Eng.At(atS, func() { sys.Fleet[id].Fail() })
	return runSearch(ScenarioA, cfg, sys, false)
}

func TestDeviceFailureRecoveryWithController(t *testing.T) {
	// Fig. 10 end to end: a drone dies mid-mission. HiveMind's
	// controller detects the missing heartbeats, repartitions the lost
	// region, and the mission still completes; the centralized baseline
	// loses the region's items.
	mk := func(sysKind platform.SystemKind) Config {
		return DefaultConfig(ScenarioA, platform.Preset(sysKind, 16, 31))
	}
	hm := runFailing(mk(platform.HiveMind), 5, 8)
	if !hm.Completed {
		t.Fatalf("hivemind mission incomplete despite repartitioning: %s", hm)
	}
	if hm.Failover == nil || hm.Failover.DeviceFailures == 0 || hm.Failover.RouteUpdates == 0 {
		t.Fatalf("controller never repartitioned: %+v", hm.Failover)
	}
	cen := runFailing(mk(platform.CentralizedFaaS), 5, 8)
	if cen.Failover != nil {
		t.Fatal("baseline should run no controller")
	}
	// The baseline either fails to find everything or takes far longer.
	if cen.Completed && cen.CompletionS < hm.CompletionS {
		t.Fatalf("baseline recovered better than hivemind: %s vs %s", cen, hm)
	}
}

func TestFailureWithoutItemsInRegionIsHarmless(t *testing.T) {
	r := runFailing(DefaultConfig(ScenarioA, platform.Preset(platform.HiveMind, 16, 33)), 15, 1)
	if r.Found == 0 {
		t.Fatalf("mission collapsed from one failure: %s", r)
	}
}
