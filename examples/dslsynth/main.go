// DSL + synthesis walkthrough: express the paper's Listing 3
// application (people recognition and deduplication) in the HiveMind
// DSL, explore every meaningful cloud/edge placement with the program
// synthesizer, pick one under constraints, and print the cross-tier
// bindings it needs — the compiler pipeline of §4.1–4.2. synth.Deploy
// wires those bindings onto a live fleet (see cmd/hivemind-live).
package main

import (
	"fmt"

	"hivemind"
)

const program = `
# People Recognition and Deduplication (paper Listing 3)
TaskGraph(list=['createRoute','collectImage','obstacleAvoidance',
                'faceRecognition','deduplication'],
          constraint=[execTime='10s'])

Task(createRoute, inputMap, outputRoute, 'tasks/create_route',
     load_balancer='round robin', parentTask=None,
     childTask=['collectImage'])
Task(collectImage, None, sensorData, 'tasks/collect_image',
     speed='4', resolution='1024p',
     parentTask=['createRoute'],
     childTask=['obstacleAvoidance','faceRecognition'])
Task(obstacleAvoidance, sensorData, adjustRoute, 'tasks/obstacle_avoid',
     parentTask=['collectImage'], childTask=[])
Task(faceRecognition, sensorData, recognitionStats, 'tasks/face_rec',
     algorithm='tensorflow_zoo',
     parentTask=['collectImage'], childTask=['deduplication'])
Task(deduplication, recognitionStats, dedupList, 'tasks/dedup',
     sync='all', parentTask=['faceRecognition'], childTask=[])

Parallel(obstacleAvoidance, faceRecognition)
Serial(faceRecognition, deduplication)
Learn(faceRecognition, 'Global')
Place(obstacleAvoidance, 'Edge:all')
Persist(deduplication)
`

func main() {
	g, err := hivemind.ParseDSL(program)
	if err != nil {
		panic(err)
	}
	fmt.Printf("parsed: %s\n", g)
	fmt.Printf("constraints: execTime=%gs\n\n", g.Constraints.ExecTimeS)

	costs := map[string]hivemind.TaskCost{
		"createRoute":       {CloudExecS: 0.05, EdgeExecS: 0.2, Parallelism: 1, OutputMB: 0.01, RatePerDev: 0.02},
		"collectImage":      {CloudExecS: 0.01, EdgeExecS: 0.01, Parallelism: 1, OutputMB: 8, RatePerDev: 1, Sensor: true},
		"obstacleAvoidance": {CloudExecS: 0.06, EdgeExecS: 0.1, Parallelism: 1, InputMB: 0.4, OutputMB: 0.005, RatePerDev: 4},
		"faceRecognition":   {CloudExecS: 0.8, EdgeExecS: 3.5, Parallelism: 8, InputMB: 8, OutputMB: 0.05, RatePerDev: 1},
		"deduplication":     {CloudExecS: 1.0, EdgeExecS: 4.5, Parallelism: 8, InputMB: 0.05, OutputMB: 0.1, RatePerDev: 0.5},
	}
	cands, err := hivemind.ExplorePlacements(g, costs, 16)
	if err != nil {
		panic(err)
	}
	fmt.Printf("explored %d meaningful execution models:\n", len(cands))
	for i, c := range cands {
		m := c.Metrics
		fmt.Printf("%2d. %-95s lat=%.2fs power=%.0fW net=%.0fMB/s feasible=%v\n",
			i+1, c.Name(), m.LatencyS, m.DevicePowerW, m.NetworkMBps, m.Feasible)
	}

	best := cands[0]
	fmt.Printf("\nselected placement: %s\nbindings:\n", best.Name())
	for _, b := range best.Bindings {
		fmt.Printf("  %-17s -> %-17s %s\n", b.From, b.To, b.Kind)
	}
}
