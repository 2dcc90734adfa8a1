// Command benchmark is the repository's one performance ledger: five
// fixed workloads driven through the public APIs of the live stack
// (ingress → gateway → rpc → runtime → store, replicated controller)
// and of the simulator, eight end-to-end metrics per workload, and —
// with --trace 1 — about eighty per-layer numbers measured from
// outside each layer. See README.md beside this file.
//
//	bash benchmark/run.sh --workload http-null --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                      # every workload, one table
//	bash benchmark/run.sh --repeat 2 --runs 10 # the self-agreement check
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metricDef names one reported number. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before it
// counts as a regression (per-layer metrics have none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports
// all of them, from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p90_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.20},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"ok_share", "ratio", "higher", 0.001},
}

func lower(unit string, names ...string) []metricDef  { return defs(unit, "lower", names) }
func higher(unit string, names ...string) []metricDef { return defs(unit, "higher", names) }

func defs(unit, better string, names []string) (out []metricDef) {
	for _, n := range names {
		out = append(out, metricDef{Name: n, Unit: unit, Better: better})
	}
	return out
}

// perLayer is the traced run's output. Names are <package>.<metric>;
// README.md says how each is measured and what it should move.
var perLayer = concat(
	lower("us", "client.http_self_us", "client.op_p99_us", "client.op_max_us",
		"client.gen_late_p50_us", "client.gen_late_p99_us", "client.service_p50_us"),
	lower("us", "ingress.self_us"),
	lower("ns", "ingress.serve_direct_ns", "ingress.then_direct_ns"),
	lower("count", "ingress.serve_direct_allocs", "ingress.failed"),
	higher("count", "ingress.posted", "ingress.dispatched"),
	higher("ratio", "ingress.coalesced_share"),
	lower("us", "rpc.link_self_us", "rpc.large_echo_us"),
	lower("ns", "rpc.ring_echo_ns", "rpc.mux_echo_ns", "rpc.mux_pipelined_ns", "rpc.tcp_echo_ns"),
	lower("count", "rpc.ring_echo_allocs", "rpc.mux_echo_allocs", "rpc.dropped_expired"),
	lower("ratio", "accel.hw_rtt_ratio_ring", "accel.hw_rtt_ratio_tcp"),
	lower("us", "runtime.gateway_self_us", "runtime.fn_us", "runtime.chain3_us"),
	lower("ns", "runtime.link_call_ns", "runtime.admission_ns", "runtime.invoke_ns"),
	lower("count", "runtime.invoke_allocs", "runtime.shed_full", "runtime.shed_codel", "runtime.retries"),
	higher("count", "runtime.admitted", "runtime.invocations"),
	lower("ns", "store.put_ns", "store.get_ns", "store.durable_put_ns", "store.wal_append_ns"),
	lower("us", "store.wal_sync_us", "store.ckpt_task_us"),
	lower("ms", "store.compact_ms", "store.recover_ms"),
	lower("count", "store.wal_records", "store.wal_bytes_per_task", "store.docs"),
	lower("us", "controller.track_us"),
	lower("ns", "controller.gate_ns"),
	lower("ms", "controller.elect_ms"),
	lower("ns", "metrics.count_event_ns", "metrics.observe_ns"),
	lower("us", "metrics.http_null_cost_us"),
	lower("ns", "sim.engine_ns_per_event", "sim.shard_ns_per_event"),
	higher("1/s", "sim.swarm_events_per_s"),
	lower("count", "sim.swarm_steps", "sim.shard_windows", "sim.shard_cross_msgs"),
	higher("ratio", "sim.shard_speedup"),
	lower("ms", "netsim.neighbor_build_ms", "geo.cellindex_build_ms",
		"scenario.swarm_setup_ms", "scenario.swarm_ms_per_sim_s"),
	lower("ns", "netsim.neighbor_query_ns"),
	lower("count", "netsim.radio_broadcasts", "netsim.radio_deliveries", "netsim.radio_cross_events"),
	lower("ms", "platform.runjob_ms", "experiments.fig01_ms", "experiments.fig17b_ms",
		"experiments.fig13_ms", "experiments.fig03b_ms", "experiments.mega01_ms", "synth.explore_wide_ms"),
	lower("s", "experiments.sweep_s"),
	higher("ratio", "experiments.par_speedup"),
	lower("us", "synth.explore_us"),
	lower("%", "bench.trace_overhead_pct"),
	higher("ratio", "bench.trace_path_share"),
	higher("count", "bench.traced_ops", "bench.window_ops"),
)

func concat(groups ...[]metricDef) (out []metricDef) {
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a result's metrics, pre-filled from a table so that
// every name is present and nothing outside the table can be set.
type metricSet map[string]*metricValue

func newMetricSet(table []metricDef) metricSet {
	m := metricSet{}
	for _, d := range table {
		m[d.Name] = &metricValue{Unit: d.Unit}
	}
	return m
}

func (m metricSet) has(name string) bool { return m[name] != nil }

func (m metricSet) set(name string, v float64) {
	mv := m[name]
	if mv == nil {
		panic("benchmark: metric " + name + " is not in the table")
	}
	mv.Value = v
}

// result is the last line of a workload run's standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// config is one workload run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	scale   float64 // warm-up and drive counts × scale; 1 except in smoke runs
	reps    int     // set-ups per untraced run; setup_s is their median
	nproc   int     // cores: sharded-engine workers, sweep parallelism
	clients int     // load-generating goroutines and connections: min(nproc, 4)
}

func newConfig(seed int64, seconds float64, outDir string) *config {
	n := runtime.NumCPU()
	return &config{seed: seed, seconds: seconds, outDir: outDir, scale: 1, reps: 3, nproc: n, clients: min(n, 4)}
}

// smokeConfig runs a workload for a fraction of a second at 1 % of its
// warm-up, with one set-up and every check on.
func smokeConfig(seed int64, outDir string) *config {
	c := newConfig(seed, 0.3, outDir)
	c.scale, c.reps = 0.01, 1
	return c
}

// scaled applies the scale to a fixed op count (at least one op).
func (c *config) scaled(n int) int { return max(1, int(float64(n)*c.scale)) }

func (c *config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// env is a workload that has been set up and warmed.
type env interface {
	// drive runs the timed window and returns what the generator saw.
	drive(window time.Duration) *recorder
	// counters reads the layers' public counters after the window.
	counters(m metricSet)
	// close tears everything down and runs the post-run checks.
	close() error
}

type workload struct {
	name  string
	why   string
	live  bool // has span seams (the live stack); the simulator has none
	setup func(c *config, tr *tracer) (env, error)
}

var workloads = []workload{
	{"http-null", "64 B null job through ingress, shm ring, gateway and runtime: the stack ceiling; store, TCP and controller idle, so their changes must not move it", true, setupHTTP(false)},
	{"fleet-chain-wal", "durable 3-step chains over TCP into a 3-replica fleet: WAL, checkpoints, replication and the mux rpc path dominate; ingress bypassed", true, setupFleet},
	{"http-mixed-open", "open loop at 4000/s, async POST+GET, 64 B to 64 KiB, 25 % repeats, hashing function with store reads: the paths http-null skips", true, setupHTTP(true)},
	{"sim-swarm", "10^4-device sharded missions: ShardedEngine, Radio, neighbour and cell indexes do all the work; live stack idle", false, setupSwarm},
	{"sim-sweep", "quick evaluation sweeps in parallel: bare Engine, Medium, platform, faas, synth; many small runs, not one sharded run", false, setupSweep},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sliceLen: the window is driven in slices of this length, each with
// its own reading of the cost counters. Rates and per-op costs are
// reported as the median slice, so a burst of outside load on the host
// that lasts a second or two does not move them.
const sliceLen = time.Second

// sliceCost is what one slice of the window did and what it cost.
type sliceCost struct {
	ok      int64
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
}

// measured is one timed window.
type measured struct {
	setupS   float64
	rec      *recorder // every slice's ops, latencies ascending
	slices   []sliceCost
	counters metricSet
	checkErr error
}

func (m *measured) ok() int64 { return int64(len(m.rec.lat)) }

func (m *measured) firstFailure() error {
	if m.rec.err != nil {
		return m.rec.err
	}
	return m.checkErr
}

// perSlice is the median over the slices that completed an op.
func (m *measured) perSlice(f func(sliceCost) float64) float64 {
	var v []float64
	for _, s := range m.slices {
		if s.ok > 0 {
			v = append(v, f(s))
		}
	}
	return median(v)
}

func (m *measured) opsPerS() float64 {
	return m.perSlice(func(s sliceCost) float64 { return float64(s.ok) / s.wall.Seconds() })
}

// measure sets the workload up reps times, drives the window slice by
// slice, reads the counters and closes the environment.
func measure(c *config, w *workload, tr *tracer, window time.Duration, reps int) (*measured, error) {
	var e env
	setups := make([]float64, reps)
	for r := range setups {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("%s: set-up %d: %w", w.name, r, err)
			}
		}
		start := time.Now()
		var err error
		if e, err = w.setup(c, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups[r] = time.Since(start).Seconds()
	}
	m := &measured{setupS: median(setups), rec: &recorder{}, counters: newMetricSet(perLayer)}
	if tr != nil {
		tr.on.Store(true)
	}
	n := max(1, int(window/sliceLen))
	for i := 0; i < n; i++ {
		before := readUsage()
		rec := e.drive(window / time.Duration(n))
		after := readUsage()
		m.slices = append(m.slices, sliceCost{
			ok: int64(len(rec.lat)), wall: after.wall.Sub(before.wall),
			cpu: after.cpu - before.cpu, mallocs: after.mallocs - before.mallocs,
		})
		m.rec.merge(rec)
	}
	if tr != nil {
		tr.on.Store(false)
	}
	e.counters(m.counters)
	m.checkErr = e.close()
	slices.Sort(m.rec.lat)
	return m, nil
}

// runWorkload is one invocation: the untraced run reporting every
// end-to-end metric, or the traced run reporting every per-layer one.
func runWorkload(c *config, w *workload) (*result, error) {
	if c.trace {
		return runTraced(c, w)
	}
	m, err := measure(c, w, nil, c.window(), c.reps)
	if err != nil {
		return nil, err
	}
	res := newResult(newMetricSet(endToEnd), m)
	ok := float64(m.ok())
	if ok > 0 {
		res.Metrics.set("ops_per_s", m.opsPerS())
		res.Metrics.set("op_p50_us", band(m.rec.lat, 40, 60)/1e3)
		res.Metrics.set("op_p90_us", band(m.rec.lat, 85, 95)/1e3)
		res.Metrics.set("cpu_us_per_op", m.perSlice(func(s sliceCost) float64 { return float64(s.cpu) / 1e3 / float64(s.ok) }))
		res.Metrics.set("allocs_per_op", m.perSlice(func(s sliceCost) float64 { return float64(s.mallocs) / float64(s.ok) }))
		res.Metrics.set("ok_share", ok/float64(res.Attempted))
	}
	res.Metrics.set("setup_s", m.setupS)
	res.Metrics.set("peak_rss_mb", peakRSSMiB())
	return res, nil
}

func newResult(metrics metricSet, m *measured) *result {
	res := &result{Metrics: metrics, Attempted: m.ok() + m.rec.failed, Failed: m.rec.failed}
	if m.checkErr != nil {
		res.Failed++ // a failed post-run check is a failed op
		res.Attempted++
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := m.firstFailure(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d ops failed; first: %v\n", res.Failed, res.Attempted, err)
	}
	return res
}

// runTraced is the second run: half the window without the span
// wrappers, half with them (their ops_per_s differ by the tracing
// overhead), then the layer drives.
func runTraced(c *config, w *workload) (*result, error) {
	half := c.window() / 2
	var tr *tracer
	var plain *measured
	if w.live {
		var err error
		if plain, err = measure(c, w, nil, half, 1); err != nil {
			return nil, err
		}
		tr = newTracer()
	}
	m, err := measure(c, w, tr, half, 1)
	if err != nil {
		return nil, err
	}
	res := newResult(m.counters, m) // the counters' set holds every per-layer name
	res.Metrics.set("bench.window_ops", float64(m.ok()))
	if n := len(m.rec.lat); n > 0 {
		res.Metrics.set("client.op_p99_us", float64(percentile(m.rec.lat, 99))/1e3)
		res.Metrics.set("client.op_max_us", float64(m.rec.lat[n-1])/1e3)
	}
	if len(m.rec.late) > 0 {
		slices.Sort(m.rec.late)
		slices.Sort(m.rec.service)
		res.Metrics.set("client.gen_late_p50_us", float64(percentile(m.rec.late, 50))/1e3)
		res.Metrics.set("client.gen_late_p99_us", float64(percentile(m.rec.late, 99))/1e3)
		res.Metrics.set("client.service_p50_us", float64(percentile(m.rec.service, 50))/1e3)
	}
	if tr != nil {
		res.Attempted += plain.ok() + plain.rec.failed
		res.Failed += plain.rec.failed
		res.Correct = res.Correct && plain.firstFailure() == nil
		res.Metrics.set("bench.trace_overhead_pct", (1-m.opsPerS()/plain.opsPerS())*100)
		byOp := tr.all()
		s := summarizeSpans(byOp)
		res.Metrics.set("client.http_self_us", s.selfUS[layerClient])
		res.Metrics.set("ingress.self_us", s.selfUS[layerIngress])
		res.Metrics.set("rpc.link_self_us", s.selfUS[layerLink])
		res.Metrics.set("runtime.gateway_self_us", s.selfUS[layerGateway])
		res.Metrics.set("runtime.fn_us", s.selfUS[layerFn])
		res.Metrics.set("controller.track_us", s.selfUS[layerTrack])
		res.Metrics.set("bench.trace_path_share", s.pathShare)
		res.Metrics.set("bench.traced_ops", float64(s.ops))
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(c.outDir, "trace-"+w.name+".json"), byOp); err != nil {
			return nil, err
		}
	}
	if err := layerDrives(c, res.Metrics); err != nil {
		return nil, fmt.Errorf("layer drives: %w", err)
	}
	return res, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty: all of them, each in its own process)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics and span files) instead of the untraced one")
		outDir  = flag.String("out", defaultOutDir(), "directory for span files, result files and scratch data")
		repeat  = flag.Int("repeat", 1, "all-workload mode: run this many full sets and fail if they disagree beyond a metric's bound")
		runs    = flag.Int("runs", 1, "all-workload mode: runs per workload per set, each with another seed")
		jsonOut = flag.String("json", "", "all-workload mode: write every run and the per-set medians and quartiles here")
		compare = flag.Bool("compare", false, "compare two -json files given as arguments")
		smoke   = flag.Bool("smoke", false, "every workload for a fraction of a second at 1% of its warm-up, checks on")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *smoke:
		for i := range workloads {
			res, err := runWorkload(smokeConfig(*seed, *outDir), &workloads[i])
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-16s %d ops, %d failed\n", workloads[i].name, res.Attempted, res.Failed)
			if !res.Correct {
				os.Exit(1)
			}
		}
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *trace == 1, *outDir, *repeat, *runs, *jsonOut))
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		c := newConfig(*seed, *seconds, *outDir)
		c.trace = *trace == 1
		res, err := runWorkload(c, w)
		if err != nil {
			fatal(err)
		}
		printResult(w.name, c, res)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// defaultOutDir is benchmark/out from the repository root (where
// run.sh runs the program) and out from inside benchmark/.
func defaultOutDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult is the human-readable form, above the result line.
func printResult(name string, c *config, res *result) {
	fmt.Printf("# %s seed=%d seconds=%g trace=%v  attempted=%d failed=%d\n",
		name, c.seed, c.seconds, c.trace, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16s %s\n", n, formatValue(res.Metrics[n].Value), res.Metrics[n].Unit)
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
