// Package synth implements HiveMind's program synthesis and task
// placement exploration (§4.2, Fig. 8). Starting from a validated DSL
// task graph it enumerates every *meaningful* assignment of tasks to
// edge or cloud (pruning assignments that violate Place pins or put
// device-bound sensing in the cloud), composes the cross-tier API
// bindings each assignment needs (RPC for edge<->cloud, the serverless
// data-sharing protocol intra-cloud, in-process for same-device
// chains), predicts each candidate's latency / power / network / cost
// with a queueing-informed cost model, and selects the best candidate
// that satisfies the user's constraints.
package synth

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hivemind/internal/dsl"
)

// Loc is a task's assigned location in a candidate.
type Loc int

const (
	LocCloud Loc = iota
	LocEdge
)

// String implements fmt.Stringer.
func (l Loc) String() string {
	if l == LocEdge {
		return "edge"
	}
	return "cloud"
}

// TaskCost carries the per-task profile the cost model needs. The
// caller maps tasks to measured profiles (e.g. internal/apps).
type TaskCost struct {
	CloudExecS  float64 // single-core service time in the cloud
	EdgeExecS   float64 // service time on the device
	Parallelism int     // serverless fan-out
	InputMB     float64 // data consumed per invocation
	OutputMB    float64 // data produced per invocation
	RatePerDev  float64 // invocations/s per device
	Sensor      bool    // collects device sensor data (must run on-device)
}

// Env describes the deployment the candidates are scored against: a
// swarm of Devices on the paper's testbed.
type Env struct {
	Devices int
}

// DefaultEnv matches the paper's testbed scale.
func DefaultEnv(devices int) Env {
	return Env{Devices: devices}
}

// The testbed the candidates are scored against.
const (
	wirelessMBps   float64 = 216.75 // aggregate edge<->cloud bandwidth
	cloudCores     int     = 480
	edgePowerW     float64 = 30 // device busy-compute watts
	radioJPerMB    float64 = 1.5
	cloudUSDPerCPU float64 = 2.4e-5 // $ per core-second (FaaS pricing): ~AWS Lambda GB-s ballpark
	faasOverheadS  float64 = 0.05   // per-invocation management cost
	exchangeCloudS float64 = 0.03   // intra-cloud data-sharing base cost
	rpcBaseS       float64 = 0.006  // edge<->cloud RPC base cost
)

// BindingKind is the API flavour synthesized for one graph edge.
type BindingKind int

const (
	BindLocal BindingKind = iota // same device, in-process call
	BindRPC                      // edge<->cloud (or device<->device) RPC
	BindFaaS                     // intra-cloud serverless data sharing
)

// String implements fmt.Stringer.
func (b BindingKind) String() string {
	switch b {
	case BindLocal:
		return "local"
	case BindRPC:
		return "rpc"
	default:
		return "faas"
	}
}

// Binding is a synthesized cross-task API.
type Binding struct {
	From, To string
	Kind     BindingKind
}

// Candidate is one execution model: a complete assignment plus the API
// bindings it requires.
type Candidate struct {
	Assignment map[string]Loc
	Bindings   []Binding
	Metrics    Metrics // filled by Estimate
}

// Name renders a compact signature like "route=cloud,collect=edge,...".
func (c Candidate) Name() string {
	keys := make([]string, 0, len(c.Assignment))
	for k := range c.Assignment {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%s", k, c.Assignment[k])
	}
	return strings.Join(parts, ",")
}

// Metrics is the cost model's prediction for a candidate.
type Metrics struct {
	LatencyS     float64 // end-to-end critical-path latency per task-graph instance
	DevicePowerW float64 // average per-device power above baseline
	NetworkMBps  float64 // aggregate edge<->cloud traffic
	CloudUSDps   float64 // cloud cost per second
	Feasible     bool    // network not oversubscribed, edge not overloaded
}

// model is the indexed form of (graph, costs) the exploration hot path
// works over: tasks in topo order, cost profiles and edge lists resolved
// to integer indices, so candidate generation and scoring touch no maps
// and no string keys. Exported entry points build a model internally and
// translate back to the map-keyed Candidate at the boundary.
type model struct {
	tasks []*dsl.Task
	index map[string]int
	cost  []TaskCost
	// parents holds t.Parents resolved to indices (critical-path max);
	// inEdges holds the parent of every incoming graph edge in global
	// binding order (binding-cost walk). The two agree on membership for
	// a validated graph but are kept separate so the accumulation order
	// of the cost arithmetic matches the original map-based walk exactly.
	parents [][]int
	inEdges [][]int
}

func newModel(g *dsl.TaskGraph, costs map[string]TaskCost) *model {
	tasks := g.TopoOrder()
	m := &model{
		tasks:   tasks,
		index:   make(map[string]int, len(tasks)),
		cost:    make([]TaskCost, len(tasks)),
		parents: make([][]int, len(tasks)),
		inEdges: make([][]int, len(tasks)),
	}
	for i, t := range tasks {
		m.index[t.Name] = i
		m.cost[i] = costs[t.Name]
	}
	for i, t := range tasks {
		if len(t.Parents) > 0 {
			ps := make([]int, len(t.Parents))
			for j, p := range t.Parents {
				ps[j] = m.index[p]
			}
			m.parents[i] = ps
		}
		for _, c := range t.Children {
			j := m.index[c]
			m.inEdges[j] = append(m.inEdges[j], i)
		}
	}
	return m
}

func (m *model) validate(costs map[string]TaskCost) error {
	if len(m.tasks) == 0 {
		return fmt.Errorf("synth: empty graph")
	}
	for _, t := range m.tasks {
		if _, ok := costs[t.Name]; !ok {
			return fmt.Errorf("synth: no cost profile for task %q", t.Name)
		}
	}
	if len(m.tasks) > 20 {
		return fmt.Errorf("synth: %d tasks exceeds the exploration limit (20)", len(m.tasks))
	}
	return nil
}

// enumerate generates every meaningful assignment as an indexed []Loc.
// Instead of expanding all 2^n masks and filtering, it resolves each
// pinned or sensor-bound task to its forced location up front and only
// enumerates the 2^free remaining combinations — branch-and-bound
// rather than generate-then-filter. Spreading ascending free-bit masks
// into ascending task positions is monotone, so candidates come out in
// the same order the full-mask scan produced.
func (m *model) enumerate() ([][]Loc, error) {
	n := len(m.tasks)
	template := make([]Loc, n)
	free := make([]int, 0, n)
	for i, t := range m.tasks {
		sensor := m.cost[i].Sensor
		switch {
		case sensor && t.Pin == dsl.PlaceCloud:
			// Collecting sensor data in the cloud is meaningless; a cloud
			// pin on a sensing task leaves no legal placement at all.
			return nil, fmt.Errorf("synth: constraints eliminate every placement")
		case sensor || t.Pin == dsl.PlaceEdge:
			template[i] = LocEdge
		case t.Pin == dsl.PlaceCloud:
			template[i] = LocCloud
		default:
			free = append(free, i)
		}
	}
	count := 1 << len(free)
	flat := make([]Loc, count*n) // one block, sliced per candidate
	out := make([][]Loc, count)
	for fm := 0; fm < count; fm++ {
		locs := flat[fm*n : (fm+1)*n : (fm+1)*n]
		copy(locs, template)
		for j, idx := range free {
			if fm&(1<<j) != 0 {
				locs[idx] = LocEdge
			}
		}
		out[fm] = locs
	}
	return out, nil
}

func bindKind(from, to Loc) BindingKind {
	switch {
	case from == LocCloud && to == LocCloud:
		return BindFaaS
	case from == LocEdge && to == LocEdge:
		return BindLocal
	default:
		return BindRPC
	}
}

// candidate materialises the exported map-keyed Candidate for one
// indexed assignment, composing the APIs it needs (§4.1: Thrift-style
// RPC for computation that may run at the edge, the serverless function
// interface for tasks on the cluster).
func (m *model) candidate(locs []Loc, metrics Metrics) Candidate {
	assign := make(map[string]Loc, len(locs))
	nb := 0
	for i, t := range m.tasks {
		assign[t.Name] = locs[i]
		nb += len(t.Children)
	}
	bindings := make([]Binding, 0, nb)
	for i, t := range m.tasks {
		for _, c := range t.Children {
			bindings = append(bindings, Binding{
				From: t.Name, To: c, Kind: bindKind(locs[i], locs[m.index[c]]),
			})
		}
	}
	return Candidate{Assignment: assign, Bindings: bindings, Metrics: metrics}
}

// estimate scores one indexed assignment. lat is caller-owned scratch of
// length len(m.tasks), so a tight loop over candidates reuses it. The
// arithmetic visits tasks and edges in exactly the order the original
// map-based walk did, keeping predictions bit-identical.
func (m *model) estimate(locs []Loc, env Env, lat []float64) Metrics {
	var mtr Metrics
	mtr.Feasible = true

	// Aggregate offered loads.
	var edgeUtil float64 // per-device core utilization
	var netMBps float64  // aggregate edge<->cloud
	var cloudCoreS float64
	devs := float64(env.Devices)

	// Critical path latency: longest root→leaf chain of per-task
	// latencies plus binding costs.
	for i := range m.tasks {
		cost := m.cost[i]
		var taskLat float64
		if locs[i] == LocEdge {
			util := cost.RatePerDev * cost.EdgeExecS
			edgeUtil += util
			if util >= 1 {
				// Overloaded device: the bounded on-board queue stays full,
				// so completed tasks see ~queue-length service times.
				taskLat = cost.EdgeExecS * 4
			} else {
				// Median-latency inflation from queueing (light at typical
				// utilizations; the mean-value M/M/1 formula overstates the
				// median the placement decision cares about).
				taskLat = cost.EdgeExecS * (1 + 0.5*util*util)
			}
		} else {
			par := math.Max(1, float64(cost.Parallelism))
			taskLat = cost.CloudExecS/par + faasOverheadS
			cloudCoreS += cost.RatePerDev * devs * cost.CloudExecS
		}
		// Binding (incoming edge) costs: charged on the child.
		var bindLat float64
		for _, p := range m.inEdges[i] {
			parentOut := m.cost[p].OutputMB
			switch bindKind(locs[p], locs[i]) {
			case BindRPC:
				bindLat = math.Max(bindLat, rpcBaseS+parentOut/(wirelessMBps/devs))
				netMBps += m.cost[p].RatePerDev * devs * parentOut
			case BindFaaS:
				bindLat = math.Max(bindLat, exchangeCloudS)
			case BindLocal:
				bindLat = math.Max(bindLat, 0.0005)
			}
		}
		// Sensor input arriving at a cloud task crosses the wireless hop.
		if locs[i] == LocCloud && cost.InputMB > 0 && len(m.inEdges[i]) == 0 {
			netMBps += cost.RatePerDev * devs * cost.InputMB
			bindLat = math.Max(bindLat, cost.InputMB/(wirelessMBps/devs))
		}
		best := 0.0
		for _, p := range m.parents[i] {
			if lat[p] > best {
				best = lat[p]
			}
		}
		lat[i] = best + taskLat + bindLat
	}
	for i := range m.tasks {
		if lat[i] > mtr.LatencyS {
			mtr.LatencyS = lat[i]
		}
	}
	if edgeUtil >= 1 {
		mtr.Feasible = false
	}
	if netMBps >= wirelessMBps {
		mtr.Feasible = false
	}
	if cloudCoreS > float64(cloudCores) {
		mtr.Feasible = false
	}
	mtr.NetworkMBps = netMBps
	mtr.DevicePowerW = edgeUtil*edgePowerW + (netMBps/devs)*radioJPerMB
	mtr.CloudUSDps = cloudCoreS * cloudUSDPerCPU
	return mtr
}

// estimateChunk is the grain of the parallel estimation fan-out: big
// enough to amortize goroutine handoff, small enough to balance load
// across uneven chunks.
const estimateChunk = 256

// estimateAll scores every assignment into metrics (index-aligned with
// locsList). Candidates are independent, so they are fanned across
// GOMAXPROCS workers in chunks; each worker writes disjoint indices,
// which keeps the result deterministic regardless of scheduling.
func (m *model) estimateAll(locsList [][]Loc, env Env, metrics []Metrics) {
	workers := runtime.GOMAXPROCS(0)
	if max := (len(locsList) + estimateChunk - 1) / estimateChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		lat := make([]float64, len(m.tasks))
		for i, locs := range locsList {
			metrics[i] = m.estimate(locs, env, lat)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]float64, len(m.tasks))
			for {
				start := int(next.Add(estimateChunk)) - estimateChunk
				if start >= len(locsList) {
					return
				}
				end := start + estimateChunk
				if end > len(locsList) {
					end = len(locsList)
				}
				for i := start; i < end; i++ {
					metrics[i] = m.estimate(locsList[i], env, lat)
				}
			}
		}()
	}
	wg.Wait()
}

// Explore enumerates, estimates and ranks all candidates. Tasks fed by
// a declared data stream inherit its rate (and item size, when the cost
// profile leaves them unset).
func Explore(g *dsl.TaskGraph, costs map[string]TaskCost, env Env) ([]Candidate, error) {
	// Patch stream-derived rates into a copy: the costs map belongs to
	// the caller, who may reuse it across runs or share it between
	// concurrent Explore calls.
	patched := make(map[string]TaskCost, len(costs))
	for k, v := range costs {
		patched[k] = v
	}
	for _, t := range g.Tasks {
		if st, ok := g.StreamFor(t); ok {
			c := patched[t.Name]
			if c.RatePerDev == 0 {
				c.RatePerDev = st.RateHz
			}
			if c.InputMB == 0 {
				c.InputMB = st.ItemMB
			}
			patched[t.Name] = c
		}
	}
	m := newModel(g, patched)
	if err := m.validate(patched); err != nil {
		return nil, err
	}
	locsList, err := m.enumerate()
	if err != nil {
		return nil, err
	}
	metrics := make([]Metrics, len(locsList))
	m.estimateAll(locsList, env, metrics)
	// Rank by index so the map-keyed Candidates are only materialised
	// once, in final order.
	order := make([]int, len(locsList))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := metrics[order[i]], metrics[order[j]]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		return a.LatencyS < b.LatencyS
	})
	out := make([]Candidate, len(order))
	for rank, idx := range order {
		out[rank] = m.candidate(locsList[idx], metrics[idx])
	}
	return out, nil
}

// Select returns the best candidate satisfying the user's constraints
// (§4.1: performance, power, cost, or a combination). Zero-valued
// constraint fields are unconstrained. If nothing satisfies them, the
// feasible latency-optimal candidate is returned with ok=false.
func Select(cands []Candidate, cons dsl.Constraints, maxPowerW float64) (Candidate, bool) {
	meets := func(m Metrics) bool {
		if !m.Feasible {
			return false
		}
		if cons.LatencyS > 0 && m.LatencyS > cons.LatencyS {
			return false
		}
		if cons.ExecTimeS > 0 && m.LatencyS > cons.ExecTimeS {
			return false
		}
		if cons.MaxCostUSD > 0 && m.CloudUSDps*3600 > cons.MaxCostUSD {
			return false
		}
		if maxPowerW > 0 && m.DevicePowerW > maxPowerW {
			return false
		}
		if cons.MaxPowerW > 0 && m.DevicePowerW > cons.MaxPowerW {
			return false
		}
		return true
	}
	for _, c := range cands {
		if meets(c.Metrics) {
			return c, true
		}
	}
	for _, c := range cands {
		if c.Metrics.Feasible {
			return c, false
		}
	}
	if len(cands) > 0 {
		return cands[0], false
	}
	return Candidate{}, false
}
