package synth

import (
	"testing"

	"hivemind/internal/dsl"
)

// benchGraph is the Scenario B task graph (paper Listing 3): 5 tasks,
// one Place pin and one sensor task, leaving 2^3 = 8 candidates.
func benchGraph(b *testing.B) *dsl.TaskGraph {
	b.Helper()
	g, err := dsl.NewGraph("scenarioB").
		Task("createRoute").
		Task("collectImage", dsl.WithParents("createRoute")).
		Task("obstacleAvoidance", dsl.WithParents("collectImage")).
		Task("faceRecognition", dsl.WithParents("collectImage")).
		Task("deduplication", dsl.WithParents("faceRecognition")).
		Place("obstacleAvoidance", dsl.PlaceEdge, true).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchCosts() map[string]TaskCost {
	return map[string]TaskCost{
		"createRoute":       {CloudExecS: 0.05, EdgeExecS: 0.2, Parallelism: 1, OutputMB: 0.01, RatePerDev: 0.02},
		"collectImage":      {CloudExecS: 0.01, EdgeExecS: 0.01, Parallelism: 1, OutputMB: 8, RatePerDev: 1, Sensor: true},
		"obstacleAvoidance": {CloudExecS: 0.06, EdgeExecS: 0.1, Parallelism: 1, InputMB: 0.4, OutputMB: 0.005, RatePerDev: 4},
		"faceRecognition":   {CloudExecS: 0.8, EdgeExecS: 3.5, Parallelism: 8, InputMB: 8, OutputMB: 0.05, RatePerDev: 1},
		"deduplication":     {CloudExecS: 1.0, EdgeExecS: 4.5, Parallelism: 8, InputMB: 0.05, OutputMB: 0.1, RatePerDev: 0.5},
	}
}

// wideGraph is a 12-task fan-out/fan-in pipeline with no pins: 2^12 =
// 4096 candidates, the synthesis explorer's stress shape.
func wideGraph(b *testing.B) (*dsl.TaskGraph, map[string]TaskCost) {
	b.Helper()
	gb := dsl.NewGraph("wide").Task("src")
	costs := map[string]TaskCost{
		"src": {CloudExecS: 0.01, EdgeExecS: 0.02, Parallelism: 1, OutputMB: 0.5, RatePerDev: 1},
	}
	stages := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for _, s := range stages {
		gb = gb.Task(s, dsl.WithParents("src"))
		costs[s] = TaskCost{CloudExecS: 0.05, EdgeExecS: 0.12, Parallelism: 2, InputMB: 0.5, OutputMB: 0.1, RatePerDev: 0.5}
	}
	gb = gb.Task("sink", dsl.WithParents(stages...))
	costs["sink"] = TaskCost{CloudExecS: 0.08, EdgeExecS: 0.3, Parallelism: 2, InputMB: 1, OutputMB: 0.05, RatePerDev: 0.5}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g, costs
}

// BenchmarkExplore measures the §4.2 synthesis explorer end to end
// (enumerate + estimate + rank) on the Scenario B graph.
func BenchmarkExplore(b *testing.B) {
	g := benchGraph(b)
	costs := benchCosts()
	env := DefaultEnv(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Explore(g, costs, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreWide is the 4096-candidate stress case.
func BenchmarkExploreWide(b *testing.B) {
	g, costs := wideGraph(b)
	env := DefaultEnv(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Explore(g, costs, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerate isolates candidate generation from estimation.
func BenchmarkEnumerate(b *testing.B) {
	g := benchGraph(b)
	costs := benchCosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newModel(g, costs).enumerate(); err != nil {
			b.Fatal(err)
		}
	}
}
