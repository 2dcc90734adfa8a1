package synth

import (
	"testing"

	"hivemind/internal/dsl"
)

// scenarioB mirrors the paper's Listing 3 graph.
func scenarioB(t *testing.T) *dsl.TaskGraph {
	t.Helper()
	g, err := dsl.NewGraph("scenarioB").
		Task("createRoute").
		Task("collectImage", dsl.WithParents("createRoute")).
		Task("obstacleAvoidance", dsl.WithParents("collectImage")).
		Task("faceRecognition", dsl.WithParents("collectImage")).
		Task("deduplication", dsl.WithParents("faceRecognition")).
		Place("obstacleAvoidance", dsl.PlaceEdge, true).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustBuild(t *testing.T, b *dsl.Builder) *dsl.TaskGraph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func scenarioBCosts() map[string]TaskCost {
	return map[string]TaskCost{
		"createRoute":       {CloudExecS: 0.05, EdgeExecS: 0.2, Parallelism: 1, OutputMB: 0.01, RatePerDev: 0.02},
		"collectImage":      {CloudExecS: 0.01, EdgeExecS: 0.01, Parallelism: 1, OutputMB: 8, RatePerDev: 1, Sensor: true},
		"obstacleAvoidance": {CloudExecS: 0.06, EdgeExecS: 0.1, Parallelism: 1, InputMB: 0.4, OutputMB: 0.005, RatePerDev: 4},
		"faceRecognition":   {CloudExecS: 0.8, EdgeExecS: 3.5, Parallelism: 8, InputMB: 8, OutputMB: 0.05, RatePerDev: 1},
		"deduplication":     {CloudExecS: 1.0, EdgeExecS: 4.5, Parallelism: 8, InputMB: 0.05, OutputMB: 0.1, RatePerDev: 0.5},
	}
}

func TestEnumerateRespectsPins(t *testing.T) {
	g := scenarioB(t)
	cands, err := Explore(g, scenarioBCosts(), DefaultEnv(16))
	if err != nil {
		t.Fatal(err)
	}
	// 5 tasks, obstacleAvoidance pinned edge, collectImage sensor-pinned
	// edge: 2^3 = 8 candidates.
	if len(cands) != 8 {
		t.Fatalf("candidates = %d, want 8", len(cands))
	}
	for _, c := range cands {
		if c.Assignment["obstacleAvoidance"] != LocEdge {
			t.Fatal("pin violated")
		}
		if c.Assignment["collectImage"] != LocEdge {
			t.Fatal("sensor task placed in cloud")
		}
	}
}

func TestEnumerateSimpleGraphMatchesPaperExample(t *testing.T) {
	// §4.2: a 2-tier graph A→B without constraints yields 4 models.
	g := mustBuild(t, dsl.NewGraph("ab").Task("A").Task("B", dsl.WithParents("A")))
	costs := map[string]TaskCost{
		"A": {CloudExecS: 0.1, EdgeExecS: 0.3, Parallelism: 1, OutputMB: 1, RatePerDev: 1},
		"B": {CloudExecS: 0.1, EdgeExecS: 0.3, Parallelism: 1, InputMB: 1, OutputMB: 0.1, RatePerDev: 1},
	}
	cands, err := Explore(g, costs, DefaultEnv(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 {
		t.Fatalf("candidates = %d, want 4 (Acloud→Bcloud, Aedge→Bcloud, Acloud→Bedge, Aedge→Bedge)", len(cands))
	}
	seen := map[string]bool{}
	for _, c := range cands {
		seen[c.Name()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("duplicate candidates: %v", seen)
	}
}

func TestEnumerateErrors(t *testing.T) {
	g := mustBuild(t, dsl.NewGraph("g").Task("a"))
	if _, err := Explore(g, map[string]TaskCost{}, DefaultEnv(16)); err == nil {
		t.Fatal("missing cost accepted")
	}
	// Contradiction: sensor task pinned to cloud.
	g2 := mustBuild(t, dsl.NewGraph("g").Task("a").Place("a", dsl.PlaceCloud, false))
	if _, err := Explore(g2, map[string]TaskCost{"a": {Sensor: true, CloudExecS: 1, EdgeExecS: 1, RatePerDev: 1}}, DefaultEnv(16)); err == nil {
		t.Fatal("impossible constraints accepted")
	}
}

func TestBindingKindsFollowPlacement(t *testing.T) {
	g := scenarioB(t)
	cands, _ := Explore(g, scenarioBCosts(), DefaultEnv(16))
	for _, c := range cands {
		for _, b := range c.Bindings {
			from, to := c.Assignment[b.From], c.Assignment[b.To]
			switch {
			case from == LocCloud && to == LocCloud:
				if b.Kind != BindFaaS {
					t.Fatalf("cloud-cloud edge %s->%s got %s", b.From, b.To, b.Kind)
				}
			case from == LocEdge && to == LocEdge:
				if b.Kind != BindLocal {
					t.Fatalf("edge-edge %s->%s got %s", b.From, b.To, b.Kind)
				}
			default:
				if b.Kind != BindRPC {
					t.Fatalf("cross %s->%s got %s", b.From, b.To, b.Kind)
				}
			}
		}
	}
}

func TestExploreRanksFeasibleFirst(t *testing.T) {
	g := scenarioB(t)
	cands, err := Explore(g, scenarioBCosts(), DefaultEnv(16))
	if err != nil {
		t.Fatal(err)
	}
	if !cands[0].Metrics.Feasible {
		t.Fatal("best candidate infeasible")
	}
	for i := 1; i < len(cands); i++ {
		a, b := cands[i-1].Metrics, cands[i].Metrics
		if a.Feasible == b.Feasible && a.LatencyS > b.LatencyS {
			t.Fatalf("ranking broken at %d: %g > %g", i, a.LatencyS, b.LatencyS)
		}
	}
	// The all-edge assignment should be infeasible: face recognition
	// saturates the on-board core (util 3.5 > 1).
	for _, c := range cands {
		if c.Assignment["faceRecognition"] == LocEdge && c.Assignment["deduplication"] == LocEdge {
			if c.Metrics.Feasible {
				t.Fatal("overloaded all-edge candidate marked feasible")
			}
		}
	}
}

func TestHeavyTierPrefersCloud(t *testing.T) {
	g := scenarioB(t)
	cands, _ := Explore(g, scenarioBCosts(), DefaultEnv(16))
	best := cands[0]
	if best.Assignment["faceRecognition"] != LocCloud {
		t.Fatalf("best placement puts face recognition on %s", best.Assignment["faceRecognition"])
	}
}

func TestSelectHonoursConstraints(t *testing.T) {
	g := scenarioB(t)
	cands, _ := Explore(g, scenarioBCosts(), DefaultEnv(16))
	// Loose constraints: pick the fastest feasible.
	got, ok := Select(cands, dsl.Constraints{ExecTimeS: 1000}, 0)
	if !ok {
		t.Fatal("loose constraints unmet")
	}
	if got.Name() != cands[0].Name() {
		t.Fatal("did not pick the ranked best")
	}
	// Impossible latency: falls back with ok=false.
	_, ok = Select(cands, dsl.Constraints{LatencyS: 1e-9}, 0)
	if ok {
		t.Fatal("impossible constraint reported satisfied")
	}
	// Power cap forces heavy work off the devices: 30 W admits the
	// cloud-recognition candidates (radio + light edge tasks) but not
	// on-board recognition (≈100 W of compute).
	sel, ok := Select(cands, dsl.Constraints{}, 30)
	if !ok {
		t.Fatal("power-capped selection failed")
	}
	if sel.Assignment["faceRecognition"] != LocCloud {
		t.Fatalf("power cap not respected: %s", sel.Name())
	}
	if sel.Metrics.DevicePowerW > 30 {
		t.Fatalf("selected power %g exceeds cap", sel.Metrics.DevicePowerW)
	}
}

func TestSelectEmpty(t *testing.T) {
	if _, ok := Select(nil, dsl.Constraints{}, 0); ok {
		t.Fatal("empty selection succeeded")
	}
}

func TestEstimateTradeoffShape(t *testing.T) {
	g := scenarioB(t)
	costs := scenarioBCosts()
	env := DefaultEnv(16)
	cands, _ := Explore(g, costs, env)
	var allCloud, faceEdge *Candidate
	for i := range cands {
		c := &cands[i]
		if c.Assignment["faceRecognition"] == LocCloud && c.Assignment["deduplication"] == LocCloud && c.Assignment["createRoute"] == LocCloud {
			allCloud = c
		}
		if c.Assignment["faceRecognition"] == LocEdge && c.Assignment["deduplication"] == LocCloud {
			faceEdge = c
		}
	}
	if allCloud == nil || faceEdge == nil {
		t.Fatal("candidates missing")
	}
	mc, me := allCloud.Metrics, faceEdge.Metrics
	// Offloading recognition transfers the sensor payload: more network,
	// less device power; running it on-device is the reverse.
	if mc.NetworkMBps <= me.NetworkMBps {
		t.Fatalf("cloud network %g should exceed edge-heavy %g", mc.NetworkMBps, me.NetworkMBps)
	}
	if mc.DevicePowerW >= me.DevicePowerW {
		t.Fatalf("cloud device power %g should be below edge-heavy %g", mc.DevicePowerW, me.DevicePowerW)
	}
	if mc.CloudUSDps <= 0 {
		t.Fatal("cloud cost should be positive")
	}
}

func TestCandidateName(t *testing.T) {
	c := Candidate{Assignment: map[string]Loc{"b": LocEdge, "a": LocCloud}}
	if c.Name() != "a=cloud,b=edge" {
		t.Fatalf("name = %q", c.Name())
	}
	if LocEdge.String() != "edge" || LocCloud.String() != "cloud" {
		t.Fatal("loc strings")
	}
	if BindLocal.String() != "local" || BindRPC.String() != "rpc" || BindFaaS.String() != "faas" {
		t.Fatal("binding strings")
	}
}

func TestExploreUsesStreamRates(t *testing.T) {
	// A task fed by an 8 Hz × 2 MB stream inherits that load when its
	// cost profile leaves rate/input unset.
	g, costs := streamGraph(t)
	cands, err := Explore(g, costs, DefaultEnv(16))
	if err != nil {
		t.Fatal(err)
	}
	// The stream-driven rate (8/s × 0.45s = 3.6 utilization) must make
	// every on-device recognition placement infeasible.
	for _, c := range cands {
		if c.Assignment["recognize"] == LocEdge && c.Metrics.Feasible {
			t.Fatalf("stream rate ignored: edge placement feasible (%s)", c.Name())
		}
	}
}
