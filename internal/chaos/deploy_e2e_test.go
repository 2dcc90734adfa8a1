package chaos_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/dsl"
	"hivemind/internal/fleet"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/store"
	"hivemind/internal/synth"
)

// listing3 is the paper's example application, People Recognition and
// Deduplication (Listing 3).
const listing3 = `
TaskGraph(list=['createRoute','collectImage','obstacleAvoidance',
                'faceRecognition','deduplication'],
          constraint=[execTime='10s'])
Task(createRoute, inputMap, outputRoute, 'tasks/create_route',
     parentTask=None, childTask=['collectImage'])
Task(collectImage, None, sensorData, 'tasks/collect_image',
     parentTask=['createRoute'], childTask=['obstacleAvoidance','faceRecognition'])
Task(obstacleAvoidance, sensorData, adjustRoute, 'tasks/obstacle_avoid',
     parentTask=['collectImage'], childTask=[])
Task(faceRecognition, sensorData, recognitionStats, 'tasks/face_rec',
     parentTask=['collectImage'], childTask=['deduplication'])
Task(deduplication, recognitionStats, dedupList, 'tasks/dedup',
     parentTask=['faceRecognition'], childTask=[])
Parallel(obstacleAvoidance, faceRecognition)
Serial(faceRecognition, deduplication)
Place(obstacleAvoidance, 'Edge:all')
Persist(faceRecognition)
Persist(deduplication)
`

// listing3Costs are the S1-like profiles examples/dslsynth places
// Listing 3 with.
var listing3Costs = map[string]synth.TaskCost{
	"createRoute":       {CloudExecS: 0.05, EdgeExecS: 0.2, Parallelism: 1, OutputMB: 0.01, RatePerDev: 0.02},
	"collectImage":      {CloudExecS: 0.01, EdgeExecS: 0.01, Parallelism: 1, OutputMB: 8, RatePerDev: 1, Sensor: true},
	"obstacleAvoidance": {CloudExecS: 0.06, EdgeExecS: 0.1, Parallelism: 1, InputMB: 0.4, OutputMB: 0.005, RatePerDev: 4},
	"faceRecognition":   {CloudExecS: 0.8, EdgeExecS: 3.5, Parallelism: 8, InputMB: 8, OutputMB: 0.05, RatePerDev: 1},
	"deduplication":     {CloudExecS: 1.0, EdgeExecS: 4.5, Parallelism: 8, InputMB: 0.05, OutputMB: 0.1, RatePerDev: 0.5},
}

// onDevice marks the context of the edge half's in-process calls; a
// gateway runs its functions under a context of its own.
type onDevice struct{}

// Acceptance for the paper's pipeline end to end: Listing 3 is parsed,
// placed by Explore and deployed by synth.Deploy on a 3-replica fleet,
// and the primary dies with edge requests in flight. Every request
// completes, every cloud chain commits each step exactly once, and the
// gateways run exactly the tasks synthesis placed in the cloud.
func TestDeployE2EListing3SurvivesPrimaryKill(t *testing.T) {
	g, err := dsl.ParseAndAnalyze(listing3)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := synth.Explore(g, listing3Costs, synth.DefaultEnv(16))
	if err != nil {
		t.Fatal(err)
	}
	best := cands[0]

	// Each task tags its input with its name and records where it ran.
	// The first gateway run of faceRecognition blocks until the primary
	// dies, so the kill lands mid-chain.
	var mu sync.Mutex
	ran := map[bool]map[string]bool{false: {}, true: {}} // on device → tasks
	var first atomic.Bool
	first.Store(true)
	entered := make(chan struct{}, 1)
	impls := map[string]runtime.Function{}
	for _, task := range g.Tasks {
		name := task.Name
		impls[name] = func(ctx context.Context, in []byte) ([]byte, error) {
			device := ctx.Value(onDevice{}) != nil
			mu.Lock()
			ran[device][name] = true
			mu.Unlock()
			if name == "faceRecognition" && !device && first.CompareAndSwap(true, false) {
				entered <- struct{}{}
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return tag("."+name)(ctx, in)
		}
	}
	dep, err := synth.Deploy(g, best, impls)
	if err != nil {
		t.Fatal(err)
	}

	mon := metrics.NewRegistry()
	inj := chaos.NewInjector(3, chaos.Config{})
	db := store.NewDB()
	f := bootFleet(t, fleet.Config{
		Seed: 3, Store: db, Monitor: mon, Fault: inj,
		Runtime: runtime.DefaultConfig(), Gateway: chainGateway,
		Setup: func(nd *fleet.Node) { dep.Setup(nd.Runtime, nd.Gateway) },
	})
	primary := leader(t, f)
	fc := rpc.DialFailover(f.Addrs(), rpc.FailoverOptions{
		Attempts:     60,
		RetryBackoff: 15 * time.Millisecond,
		CallTimeout:  3 * time.Second,
	})
	defer fc.Close()

	const requests = 6
	ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), onDevice{}, true), 20*time.Second)
	defer cancel()
	outs := make([]map[string][]byte, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := range requests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = dep.Run(ctx, fc.Call, fmt.Sprintf("frame-%d", i), []byte("x"))
		}()
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no request reached faceRecognition on a gateway")
	}
	inj.At(controller.KillControllerOp(primary.ID), 0)
	wg.Wait()

	image := "x.createRoute.collectImage"
	want := map[string][]byte{
		"obstacleAvoidance": []byte(image + ".obstacleAvoidance"),
		"deduplication":     []byte(image + ".faceRecognition.deduplication"),
	}
	for i := range requests {
		if errs[i] != nil {
			t.Fatalf("request %d failed across the failover: %v", i, errs[i])
		}
		if !reflect.DeepEqual(outs[i], want) {
			t.Fatalf("request %d sinks = %q, want %q", i, outs[i], want)
		}
	}
	waitNoOrphans(t, store.NewCheckpointLog(db), 5*time.Second)
	for i := range requests {
		id := fmt.Sprintf("frame-%d", i)
		assertExactlyOnce(t, db, id+"/createRoute", []string{"x.createRoute"})
		assertExactlyOnce(t, db, id+"/faceRecognition",
			[]string{image + ".faceRecognition", image + ".faceRecognition.deduplication"})
	}
	if controller.Failover(mon).Failovers < 1 {
		t.Fatal("the primary kill forced no failover")
	}

	placed := map[bool]map[string]bool{false: {}, true: {}}
	for name, loc := range best.Assignment {
		placed[loc == synth.LocEdge][name] = true
	}
	if !reflect.DeepEqual(ran[false], placed[false]) {
		t.Fatalf("gateways ran %v, want exactly the cloud-placed tasks %v", ran[false], placed[false])
	}
	if !reflect.DeepEqual(ran[true], placed[true]) {
		t.Fatalf("the edge half ran %v, want exactly the edge-placed tasks %v", ran[true], placed[true])
	}
}
