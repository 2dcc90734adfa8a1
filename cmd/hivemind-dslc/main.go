// Command hivemind-dslc is the HiveMind DSL compiler: it parses and
// validates a task-graph program, runs the placement synthesizer over
// it, and reports the explored execution models and the one selected
// under the program's constraints.
//
// Usage:
//
//	hivemind-dslc -in app.hm [-devices 16] [-costs costs.json]
//
// Task cost profiles default to S1-like values for recognition-looking
// tasks and lightweight values otherwise; provide -costs for real
// profiles (JSON: {"task": {"cloudExecS":..., "edgeExecS":..., ...}}).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hivemind/internal/dsl"
	"hivemind/internal/synth"
)

type costJSON struct {
	CloudExecS  float64 `json:"cloudExecS"`
	EdgeExecS   float64 `json:"edgeExecS"`
	Parallelism int     `json:"parallelism"`
	InputMB     float64 `json:"inputMB"`
	OutputMB    float64 `json:"outputMB"`
	RatePerDev  float64 `json:"ratePerDev"`
	Sensor      bool    `json:"sensor"`
}

func main() {
	var (
		in      = flag.String("in", "", "DSL source file (default: stdin)")
		devices = flag.Int("devices", 16, "swarm size for placement scoring")
		costsFn = flag.String("costs", "", "JSON task cost profiles")
		top     = flag.Int("top", 8, "candidates to print")
	)
	flag.Parse()

	src, err := readSource(*in)
	if err != nil {
		fatal(err)
	}
	g, err := dsl.ParseAndAnalyze(src)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("parsed %d tasks: %s\n", len(g.Tasks), g)

	costs, err := loadCosts(*costsFn, g)
	if err != nil {
		fatal(err)
	}
	cands, err := synth.Explore(g, costs, synth.DefaultEnv(*devices))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nexplored %d meaningful execution models (best first):\n", len(cands))
	for i, c := range cands {
		if i >= *top {
			fmt.Printf("  ... and %d more\n", len(cands)-*top)
			break
		}
		m := c.Metrics
		fmt.Printf("  %2d. %-60s lat=%.3fs power=%.1fW net=%.1fMB/s cost=$%.4f/h feasible=%v\n",
			i+1, c.Name(), m.LatencyS, m.DevicePowerW, m.NetworkMBps, m.CloudUSDps*3600, m.Feasible)
	}

	best, ok := synth.Select(cands, g.Constraints, 0)
	fmt.Printf("\nselected: %s (meets constraints: %v)\n", best.Name(), ok)
}

func readSource(path string) (string, error) {
	if path == "" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func loadCosts(path string, g *dsl.TaskGraph) (map[string]synth.TaskCost, error) {
	costs := make(map[string]synth.TaskCost)
	if path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var raw map[string]costJSON
		if err := json.Unmarshal(b, &raw); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		for name, c := range raw {
			costs[name] = synth.TaskCost{
				CloudExecS: c.CloudExecS, EdgeExecS: c.EdgeExecS,
				Parallelism: c.Parallelism, InputMB: c.InputMB,
				OutputMB: c.OutputMB, RatePerDev: c.RatePerDev, Sensor: c.Sensor,
			}
		}
	}
	// Defaults for tasks without explicit profiles.
	for _, t := range g.Tasks {
		if _, ok := costs[t.Name]; ok {
			continue
		}
		lower := strings.ToLower(t.Name)
		switch {
		case strings.Contains(lower, "collect") || strings.Contains(lower, "sensor") || strings.Contains(lower, "image"):
			costs[t.Name] = synth.TaskCost{CloudExecS: 0.01, EdgeExecS: 0.01, Parallelism: 1, OutputMB: 8, RatePerDev: 1, Sensor: true}
		case strings.Contains(lower, "recogni") || strings.Contains(lower, "detect") || strings.Contains(lower, "slam"):
			costs[t.Name] = synth.TaskCost{CloudExecS: 0.8, EdgeExecS: 3.5, Parallelism: 8, InputMB: 8, OutputMB: 0.05, RatePerDev: 1}
		case strings.Contains(lower, "dedup"):
			costs[t.Name] = synth.TaskCost{CloudExecS: 1.0, EdgeExecS: 4.5, Parallelism: 8, InputMB: 0.2, OutputMB: 0.05, RatePerDev: 0.5}
		default:
			costs[t.Name] = synth.TaskCost{CloudExecS: 0.05, EdgeExecS: 0.15, Parallelism: 1, InputMB: 0.2, OutputMB: 0.02, RatePerDev: 1}
		}
	}
	return costs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hivemind-dslc:", err)
	os.Exit(1)
}
