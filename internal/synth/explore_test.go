package synth

import (
	"reflect"
	"sync"
	"testing"

	"hivemind/internal/dsl"
)

func streamGraph(t *testing.T) (*dsl.TaskGraph, map[string]TaskCost) {
	t.Helper()
	g, err := dsl.ParseAndAnalyze(`
Stream(cameraFeed, rate='8Hz', item='2MB')
TaskGraph(list=['collect', 'recognize'])
Task(collect, None, cameraFeed, 'code/collect', childTask=['recognize'])
Task(recognize, cameraFeed, stats, 'code/rec')
`)
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]TaskCost{
		"collect":   {CloudExecS: 0.001, EdgeExecS: 0.001, Parallelism: 1, OutputMB: 16, RatePerDev: 8, Sensor: true},
		"recognize": {CloudExecS: 0.1, EdgeExecS: 0.45, Parallelism: 2, OutputMB: 0.01},
	}
	return g, costs
}

// TestExploreDoesNotMutateCosts pins the fix for Explore patching
// stream-derived rates into the caller's map: the input must come back
// byte-for-byte untouched, even for tasks whose profile leaves
// RatePerDev/InputMB unset (the case Explore fills in internally).
func TestExploreDoesNotMutateCosts(t *testing.T) {
	g, costs := streamGraph(t)
	want := make(map[string]TaskCost, len(costs))
	for k, v := range costs {
		want[k] = v
	}
	if _, err := Explore(g, costs, DefaultEnv(16)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(costs, want) {
		t.Fatalf("Explore mutated the caller's costs map:\n got %+v\nwant %+v", costs, want)
	}
}

// TestExploreConcurrentSharedCosts: two Explore calls sharing one costs
// map must be race-clean (run under -race) and agree on the ranking.
func TestExploreConcurrentSharedCosts(t *testing.T) {
	g, costs := streamGraph(t)
	env := DefaultEnv(16)
	results := make([][]Candidate, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cands, err := Explore(g, costs, env)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = cands
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("concurrent Explore calls disagree:\n run0 %+v\n run%d %+v", results[0], i, results[i])
		}
	}
}

// TestEnumerateOrderMatchesMaskScan pins the candidate ordering contract
// the branch-and-bound enumerator must preserve: ascending full-mask
// order with bit i meaning "task i at the edge" in topo order, forced
// bits held constant.
func TestEnumerateOrderMatchesMaskScan(t *testing.T) {
	g := scenarioB(t)
	all, err := newModel(g, scenarioBCosts()).enumerate()
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, locs := range all {
		mask := 0
		for i, loc := range locs {
			if loc == LocEdge {
				mask |= 1 << i
			}
		}
		if mask <= prev {
			t.Fatalf("candidate masks not strictly ascending: %b after %b", mask, prev)
		}
		prev = mask
	}
}

// TestExploreParallelEstimationDeterministic drives a graph wide enough
// to cross the parallel-estimation chunk threshold and checks the
// ranked output is identical run to run.
func TestExploreParallelEstimationDeterministic(t *testing.T) {
	b := dsl.NewGraph("wide").Task("src")
	costs := map[string]TaskCost{
		"src": {CloudExecS: 0.01, EdgeExecS: 0.02, Parallelism: 1, OutputMB: 0.5, RatePerDev: 1, Sensor: true},
	}
	mids := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for k, name := range mids {
		b = b.Task(name, dsl.WithParents("src"))
		costs[name] = TaskCost{
			CloudExecS: 0.01 * float64(k+1), EdgeExecS: 0.03 * float64(k+1),
			Parallelism: 2, InputMB: 0.5, OutputMB: 0.1, RatePerDev: 0.5,
		}
	}
	b = b.Task("sink", dsl.WithParents(mids...))
	costs["sink"] = TaskCost{CloudExecS: 0.05, EdgeExecS: 0.2, Parallelism: 4, InputMB: 1, OutputMB: 0.01, RatePerDev: 0.5}
	g := mustBuild(t, b)

	env := DefaultEnv(16)
	first, err := Explore(g, costs, env)
	if err != nil {
		t.Fatal(err)
	}
	// src is sensor-forced to the edge; the 10 mids and the sink are free.
	if len(first) != 1<<(len(mids)+1) {
		t.Fatalf("candidates = %d, want %d", len(first), 1<<(len(mids)+1))
	}
	again, err := Explore(g, costs, env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("Explore output differs across runs")
	}
}
