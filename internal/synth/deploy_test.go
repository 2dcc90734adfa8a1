package synth

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hivemind/internal/dsl"
	"hivemind/internal/runtime"
)

// tagImpls gives every task of g an implementation that appends
// "."+name to its input and counts its calls.
func tagImpls(g *dsl.TaskGraph, calls map[string]int) map[string]runtime.Function {
	impls := map[string]runtime.Function{}
	for _, task := range g.Tasks {
		name := task.Name
		impls[name] = func(_ context.Context, in []byte) ([]byte, error) {
			calls[name]++
			return append(append([]byte{}, in...), "."+name...), nil
		}
	}
	return impls
}

// Listing 3's best candidate deploys as two cloud chains — createRoute
// alone and faceRecognition → deduplication — with the two edge tasks
// run in-process between them.
func TestDeployListing3(t *testing.T) {
	g := scenarioB(t)
	cands, err := Explore(g, scenarioBCosts(), DefaultEnv(16))
	if err != nil {
		t.Fatal(err)
	}
	best := cands[0]
	kinds := map[BindingKind]int{}
	for _, b := range best.Bindings {
		kinds[b.Kind]++
	}
	if len(best.Bindings) != 4 || kinds[BindRPC] != 2 || kinds[BindFaaS] != 1 || kinds[BindLocal] != 1 {
		t.Fatalf("bindings = %v, want 2 rpc, 1 faas, 1 local", best.Bindings)
	}
	edgeCalls := map[string]int{}
	d, err := Deploy(g, best, tagImpls(g, edgeCalls))
	if err != nil {
		t.Fatal(err)
	}
	want := "edge [collectImage obstacleAvoidance], cloud chains [createRoute faceRecognition->deduplication]"
	if d.String() != want {
		t.Fatalf("deployment = %q, want %q", d, want)
	}

	// The fake transport runs each chain with its own impls, as a
	// gateway would, and records which task ids it was called under.
	cloudCalls := map[string]int{}
	var ids []string
	call := func(_ context.Context, method string, payload []byte) ([]byte, error) {
		id, data, ok := runtime.DecodeTask(payload)
		if !ok {
			t.Fatalf("chain %s called with a bare payload", method)
		}
		ids = append(ids, id)
		impls := tagImpls(g, cloudCalls)
		for _, name := range d.chains[method] {
			data, _ = impls[name](context.Background(), data)
		}
		return data, nil
	}
	out, err := d.Run(context.Background(), call, "r1", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	wantOut := map[string][]byte{
		"obstacleAvoidance": []byte("x.createRoute.collectImage.obstacleAvoidance"),
		"deduplication":     []byte("x.createRoute.collectImage.faceRecognition.deduplication"),
	}
	if !reflect.DeepEqual(out, wantOut) {
		t.Fatalf("sink outputs = %q, want %q", out, wantOut)
	}
	if w := []string{"r1/createRoute", "r1/faceRecognition"}; !reflect.DeepEqual(ids, w) {
		t.Fatalf("chain task ids = %v, want %v", ids, w)
	}
	if w := map[string]int{"collectImage": 1, "obstacleAvoidance": 1}; !reflect.DeepEqual(edgeCalls, w) {
		t.Fatalf("edge calls = %v, want %v", edgeCalls, w)
	}
	if w := map[string]int{"createRoute": 1, "faceRecognition": 1, "deduplication": 1}; !reflect.DeepEqual(cloudCalls, w) {
		t.Fatalf("cloud calls = %v, want %v", cloudCalls, w)
	}
}

// Deploy refuses, with a typed error naming the task, what it cannot
// wire.
func TestDeployErrors(t *testing.T) {
	listing3 := scenarioB(t)
	join := mustBuild(t, dsl.NewGraph("join").Task("A").Task("B").Task("C", dsl.WithParents("A", "B")))
	fork := mustBuild(t, dsl.NewGraph("fork").Task("A").
		Task("B", dsl.WithParents("A")).Task("C", dsl.WithParents("A")))
	cases := []struct {
		name   string
		g      *dsl.TaskGraph
		assign map[string]Loc
		drop   string // task left without an implementation
		fault  DeployFault
		task   string
	}{
		{"missing impl", listing3, map[string]Loc{"collectImage": LocEdge, "obstacleAvoidance": LocEdge}, "deduplication", NoImpl, "deduplication"},
		{"two parents", join, map[string]Loc{"A": LocEdge, "B": LocEdge, "C": LocEdge}, "", ManyParents, "C"},
		{"cloud fork", fork, map[string]Loc{}, "", CloudFork, "A"},
		{"interior cloud output to edge", fork, map[string]Loc{"C": LocEdge}, "", CloudFork, "A"},
	}
	for _, tc := range cases {
		impls := tagImpls(tc.g, map[string]int{})
		delete(impls, tc.drop)
		_, err := Deploy(tc.g, Candidate{Assignment: tc.assign}, impls)
		var de *DeployError
		if !errors.As(err, &de) || de.Fault != tc.fault || de.Task != tc.task {
			t.Errorf("%s: err = %v, want fault %d on task %s", tc.name, err, tc.fault, tc.task)
		}
	}
}
